"""Run one `infotile` CLI command as `python -m infotile` would, timed by a host clock.

Usage: python3 benchmark/cli_child.py CLOCK_OUT.json SPANS_OUT.json|- <infotile arguments...>

Exits with the command's code.  CLOCK_OUT.json receives the wall seconds
from just before the program is imported to just after the command
returns, and the same interval in reference-speed seconds (hostclock.py).
With a SPANS_OUT path the benchmark's span tracer is installed and the
spans of the run are written there.
"""
import json
import sys
from pathlib import Path
from time import perf_counter

from hostclock import HostClock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv) -> int:
    clock_out, spans_out, args = argv[0], argv[1], argv[2:]
    clock = HostClock()
    with clock:
        t0 = perf_counter()
        if spans_out == "-":
            from infotile import cli

            code = cli.main(args)
        else:
            from tracing import Tracer, dump

            tracer = Tracer()
            with tracer:
                from infotile import cli

                with tracer.span("cli." + args[0].replace("-", "_")):
                    code = cli.main(args)
            dump(tracer.spans, spans_out)
        t1 = perf_counter()
    Path(clock_out).write_text(json.dumps({"wall_s": t1 - t0, "norm_s": clock.seconds(t0, t1)}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
