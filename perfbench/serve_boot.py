"""Traced server bootstrap: install the span wrappers, then run the server.

``python perfbench/serve_boot.py --spans PATH -- <repro-serve arguments>``
runs ``repro.service.server.main`` in this process exactly as ``python -m
repro.service`` would, so the process layout matches the untraced run.  The
spans are written to PATH after the server has drained and returned.
"""

from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: serve_boot.py --spans PATH -- <server arguments>", file=sys.stderr)
        return 2
    recorder = spans.Recorder()
    spans.install(recorder)
    from repro.service.server import main as serve

    try:
        return serve(argv[3:])
    finally:
        recorder.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
