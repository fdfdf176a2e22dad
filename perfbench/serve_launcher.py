"""Start ``repro serve`` with the traced-run wrappers installed.

Used by serve-mixed's traced run in place of ``python -m repro serve``:
installs the same span wrappers as the in-process workloads, runs the
daemon until it is shut down, then writes its spans as JSON::

    python3 perfbench/serve_launcher.py --spans FILE serve --dataset wk ...
"""

from __future__ import annotations

import sys

from layers import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: serve_launcher.py --spans FILE serve ...",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[2:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
