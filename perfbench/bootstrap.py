"""Run one roofpairs command under the tracer and write its span summary.

    python perfbench/bootstrap.py SUMMARY.json ARGS...

is ``python -m roofpairs ARGS...`` with every public function of the
program wrapped; the summary of the recorded spans is written to
SUMMARY.json when the command ends, whatever its exit status.
"""

import json
import sys

import tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import roofpairs.cli

    t = tracer.Tracer()
    t.install()
    t.begin_op()
    code = 1
    try:
        code = roofpairs.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        t.end_op()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(t.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
