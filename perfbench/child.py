"""Run one scmech CLI command under the span tracer.

    python perfbench/child.py OUT_PREFIX SUBCOMMAND [ARGS...]

Writes the exact per-span totals to OUT_PREFIX.json and the raw spans to
OUT_PREFIX.npz, and exits with the command's exit code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import scmech.cli  # noqa: E402  (the tracer wraps the bindings it holds)

from spans import Tracer  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    with tracer:
        code = scmech.cli.main(argv)
    sys.stdout.flush()
    out.with_suffix(".json").write_text(json.dumps(tracer.aggregate()))
    tracer.save(out.with_suffix(".npz"))
    return code


if __name__ == "__main__":
    sys.exit(main())
