"""Wang tile sets, torus tilings, validity checking, and bounded search.

Tiles are 4-tuples (N, E, S, W) of colors in [1..t].  A periodic tiling
assigns a tile index to every cell of an (a, b) torus; it is valid when the
east edge of each cell matches the west edge of its right neighbor and the
north edge matches the south edge of the cell above, with wraparound.  No
rotation or reflection of tiles is ever generated.
"""
from __future__ import annotations

import json
from dataclasses import dataclass


class TilingError(ValueError):
    pass


def _int_field(x, field: str) -> int:
    """A JSON integer: booleans, floats and strings are refused."""
    if type(x) is int:
        return x
    raise TilingError(f"{field}: {x!r:.80} is not an integer")


def _int_list(x, field: str) -> tuple[int, ...]:
    """A JSON list of integers, checked as `_int_field` checks one."""
    if isinstance(x, list) and all(type(c) is int for c in x):
        return tuple(x)
    raise TilingError(f"{field}: {x!r:.80} is not a list of integers")


@dataclass(frozen=True)
class TileSet:
    num_colors: int
    tiles: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        if self.num_colors < 1:
            raise TilingError("need at least one color")
        if not self.tiles:
            raise TilingError("tile set must be nonempty")
        seen = set()
        tiles = tuple(tuple(int(c) for c in t) for t in self.tiles)
        for t in tiles:
            if len(t) != 4:
                raise TilingError(f"tile {t} must have 4 edges")
            if any(not 1 <= c <= self.num_colors for c in t):
                raise TilingError(f"tile {t} has a color out of range")
            if t in seen:
                raise TilingError(f"duplicate tile {t}")
            seen.add(t)
        object.__setattr__(self, "tiles", tiles)

    def to_obj(self) -> dict:
        return {"colors": self.num_colors, "tiles": [list(t) for t in self.tiles]}

    @staticmethod
    def from_obj(obj: dict) -> "TileSet":
        if not (isinstance(obj, dict) and "colors" in obj
                and isinstance(obj.get("tiles"), list)):
            raise TilingError('not a tile set: expected {"colors": t, "tiles": [[n, e, s, w], ...]}')
        return TileSet(
            _int_field(obj["colors"], "tile set colors"),
            tuple(_int_list(t, f"tile set tile {i}") for i, t in enumerate(obj["tiles"])),
        )


@dataclass(frozen=True)
class PeriodicTiling:
    """Grid indexed as grid[v][u] with u in [0, a) and v in [0, b)."""

    a: int
    b: int
    grid: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise TilingError("periods must be positive")
        grid = tuple(tuple(int(x) for x in row) for row in self.grid)
        if len(grid) != self.b or any(len(row) != self.a for row in grid):
            raise TilingError("grid shape must be b rows of a entries")
        object.__setattr__(self, "grid", grid)

    def tile_at(self, u: int, v: int) -> int:
        return self.grid[v % self.b][u % self.a]

    def to_obj(self) -> dict:
        return {"a": self.a, "b": self.b, "grid": [list(r) for r in self.grid]}

    @staticmethod
    def from_obj(obj: dict) -> "PeriodicTiling":
        if not (isinstance(obj, dict) and "a" in obj and "b" in obj
                and isinstance(obj.get("grid"), list)):
            raise TilingError('not a periodic tiling: expected {"a": a, "b": b, "grid": [[...], ...]}')
        return PeriodicTiling(
            _int_field(obj["a"], "periodic tiling a"),
            _int_field(obj["b"], "periodic tiling b"),
            tuple(_int_list(r, f"periodic tiling grid row {v}") for v, r in enumerate(obj["grid"])),
        )


N, E, S, W = 0, 1, 2, 3


def validate_tiling(ts: TileSet, til: PeriodicTiling) -> bool:
    """True iff all touching edges match, with arithmetic mod (a, b)."""
    for row in til.grid:
        for idx in row:
            if not 0 <= idx < len(ts.tiles):
                raise TilingError(f"tile index {idx} out of range")
    for v in range(til.b):
        for u in range(til.a):
            t = ts.tiles[til.tile_at(u, v)]
            right = ts.tiles[til.tile_at(u + 1, v)]
            above = ts.tiles[til.tile_at(u, v + 1)]
            if t[E] != right[W] or t[N] != above[S]:
                return False
    return True


def find_periodic_tiling(ts: TileSet, max_period: int) -> PeriodicTiling | None:
    """Smallest-period valid tiling with a, b <= max_period, or None.

    Periods are tried in lexicographic (a, b) order; within a period the
    grid is filled row-major (v outer, u inner) depth-first, trying tile
    indices in ascending order and pruning on already-placed west and south
    neighbors (including the wraparound rows/columns).
    """
    if max_period < 1:
        raise TilingError("max_period must be >= 1")
    tiles = ts.tiles
    for a in range(1, max_period + 1):
        for b in range(1, max_period + 1):
            grid = [[-1] * a for _ in range(b)]

            def ok(u: int, v: int, ti: int) -> bool:
                t = tiles[ti]
                if u > 0:
                    if tiles[grid[v][u - 1]][E] != t[W]:
                        return False
                if u == a - 1:
                    west_wrap = t if a == 1 else tiles[grid[v][0]]
                    if t[E] != west_wrap[W]:
                        return False
                if v > 0:
                    if tiles[grid[v - 1][u]][N] != t[S]:
                        return False
                if v == b - 1:
                    south_wrap = t if b == 1 else tiles[grid[0][u]]
                    if t[N] != south_wrap[S]:
                        return False
                return True

            def place(cell: int) -> bool:
                if cell == a * b:
                    return True
                v, u = divmod(cell, a)
                for ti in range(len(tiles)):
                    if ok(u, v, ti):
                        grid[v][u] = ti
                        if place(cell + 1):
                            return True
                        grid[v][u] = -1
                return False

            if place(0):
                til = PeriodicTiling(a, b, tuple(tuple(r) for r in grid))
                assert validate_tiling(ts, til)
                return til
    return None


def render_ascii(ts: TileSet, til: PeriodicTiling) -> str:
    """Small ASCII rendering: one cell per tile showing N/W-E/S colors."""
    lines = []
    for v in range(til.b - 1, -1, -1):
        top, mid, bot = [], [], []
        for u in range(til.a):
            n, e, s, w = ts.tiles[til.tile_at(u, v)]
            top.append(f" {n} ")
            mid.append(f"{w}#{e}")
            bot.append(f" {s} ")
        lines += ["".join(top), "".join(mid), "".join(bot)]
    return "\n".join(lines)


def tileset_dumps(ts: TileSet) -> str:
    return json.dumps(ts.to_obj(), separators=(",", ":")) + "\n"


def tileset_loads(text: str) -> TileSet:
    return TileSet.from_obj(json.loads(text))


def tiling_dumps(til: PeriodicTiling) -> str:
    return json.dumps(til.to_obj(), separators=(",", ":")) + "\n"


def tiling_loads(text: str) -> PeriodicTiling:
    return PeriodicTiling.from_obj(json.loads(text))
