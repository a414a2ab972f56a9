"""Run one perigee command in a fresh interpreter, as the console script would.

    python3 bench/child.py META_JSON TRACE -- <perigee arguments>

stdout and stderr are the command's own, byte for byte.  After the command
exits, META_JSON receives the monotonic time at which ``perigee.cli`` had been
imported, the exit code, the peak RSS (Linux only) and, with TRACE = 1, the
per-layer spans and counters (see tracer.py).
"""

import os
import sys
import time


def peak_rss_kb():
    """This process's own RSS high-water mark.

    ru_maxrss is not used: across fork and exec Linux carries the parent's
    high-water mark into it, so it would report the harness's memory.
    """
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main():
    meta_path, trace, sep = sys.argv[1:4]
    if sep != "--":
        raise SystemExit("usage: child.py META_JSON TRACE -- ARGS...")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    import perigee.cli

    imported_at = time.monotonic()
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        code = perigee.cli.main(sys.argv[4:])
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()

    import json

    meta = {"imported_at": imported_at, "exit": code, "maxrss_kb": peak_rss_kb()}
    if tracer is not None:
        meta["trace"] = tracer.report()
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
