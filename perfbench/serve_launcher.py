"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py --spans OUT.json
<repro serve options>``.  The wrappers go in before the daemon builds
its ServeCore; the spans are written to ``OUT.json`` once the daemon
has drained and stopped (SIGTERM).  The daemon's own options and
output are exactly those of ``repro serve``.
"""

from __future__ import annotations

import argparse
import sys

from spans import SpanRecorder, install


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    args, serve_args = parser.parse_known_args(argv)

    from repro.cli import main as repro_main

    recorder = SpanRecorder()
    install(recorder)
    try:
        return repro_main(["serve", *serve_args])
    finally:
        recorder.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
