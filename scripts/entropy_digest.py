#!/usr/bin/env python3
"""A digest of every subset entropy that `verify` evaluates on a reference set.

Compiles the tile set, finds a periodic tiling (periods up to 3), builds the
witness and verifies the compiled system against it.  Then it prints the
number of distinct entropy subsets the system's rows name, and a sha256
over the sorted (subset, float.hex(H)) pairs, read from the witness's
entropy memo.  Two engines agree bit for bit on a set exactly when their
digests agree.

    PYTHONPATH=src python3 scripts/entropy_digest.py --set mono
"""
import argparse
import hashlib

from infotile.compiler import compile_ttori
from infotile.tiling import TileSet, find_periodic_tiling
from infotile.witness import build_witness, verify

SETS = {
    "mono": TileSet(1, ((1, 1, 1, 1),)),
    "checker2": TileSet(2, ((1, 1, 2, 2), (2, 2, 1, 1))),
    "three3": TileSet(3, ((2, 1, 1, 1), (3, 2, 2, 2), (1, 3, 3, 3))),
}


def entropy_digest(ts: TileSet) -> tuple[int, str]:
    """(distinct subsets, sha256 hex) of the subset entropies of the verified system."""
    cs = compile_ttori(ts)
    joint = build_witness(ts, find_periodic_tiling(ts, 3))
    if not verify(joint, cs, tol=1e-6).passed:
        raise SystemExit("the witness does not verify")
    subsets = sorted({tuple(sorted(vs)) for row in cs.rows for vs in row.lhs.terms})
    text = "".join(f"{','.join(s)} {joint.entropy(s).hex()}\n" for s in subsets)
    return len(subsets), hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", choices=sorted(SETS), default="mono")
    args = parser.parse_args()
    count, digest = entropy_digest(SETS[args.set])
    print(f"{args.set}: {count} subsets, sha256 {digest}")


if __name__ == "__main__":
    main()
