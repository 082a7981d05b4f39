"""Run one ``nhjc`` CLI call in this process, as the installed ``nhjc`` script does.

    python3 bench/child.py [--trace STATS.json] -- <nhjc arguments>

With --trace the per-layer wrappers are installed before ``nhjc.cli.main``
runs, and their aggregates are written to STATS.json once, after it returns.
The exit code is the CLI's.
"""

import json
import sys


def main(argv: list[str]) -> int:
    stats_path = None
    if argv[:1] == ["--trace"]:
        stats_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    import nhjc.cli

    tracer = None
    if stats_path:
        from tracing import Tracer

        tracer = Tracer().install()
    code = nhjc.cli.main(argv)
    if tracer:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
