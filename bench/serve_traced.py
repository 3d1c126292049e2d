#!/usr/bin/env python3
"""Start ``repro serve`` with the layer table installed.

    python3 bench/serve_traced.py --spans-out FILE serve --port 0 ...

Everything after ``--spans-out FILE`` goes to ``repro.cli.main``
unchanged, so the traced server has the same process layout as the
untraced ``python -m repro serve``.  Spans stay in memory while the
server runs; the folded table is written when it has drained.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
for path in (str(REPO), str(REPO / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out":
        sys.exit(__doc__)
    spans_out, cli_args = Path(argv[1]), argv[2:]

    from bench import layers
    from bench.spans import Tracer, install
    from repro import cli

    tracer = Tracer(keep_samples=layers.KEEP_SAMPLES)
    install(tracer, layers.SPANS)
    try:
        return cli.main(cli_args)
    finally:
        partial = spans_out.with_suffix(".partial")
        partial.write_text(json.dumps(tracer.fold().to_json()))
        os.replace(partial, spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
