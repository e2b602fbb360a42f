"""One workload process: import the CLI, run it once, record when it was ready.

Usage: child.py SRC_DIR META_PATH SPANS_PATH -- CLI_ARGS...

SPANS_PATH is ``-`` for an untraced run. The ready time (after
``import rootcones.cli``, on the system-wide monotonic clock) and the exit
code go to META_PATH after the CLI returns, so writing them is not timed
as set-up. A traced run installs the tracer before the CLI starts and
writes its spans to SPANS_PATH at exit.
"""

import json
import sys
import time


def main() -> int:
    src, meta_path, spans_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SRC_DIR META_PATH SPANS_PATH -- CLI_ARGS...")
    sys.path.insert(0, src)
    import rootcones.cli

    ready = time.monotonic()
    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = rootcones.cli.main(cli_args)
    if tracer is not None:
        tracer.dump(spans_path)
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump({"ready": ready, "code": code}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
