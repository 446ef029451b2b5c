"""Fresh-process probes, timed from the launch instant the parent passes in.

    probe.py setup T0 FILE...      import grassvar.cli, then load_scenario every FILE
    probe.py cli T0 ARG...         run the grassvar CLI (grassvar.cli:main) on ARG...

T0 is the parent's ``time.monotonic()`` just before it started this
process.  CLOCK_MONOTONIC is system-wide on Linux, so the elapsed time
printed here covers interpreter start-up and every import, and ends when
the work is done, before interpreter teardown.  ``cli`` behaves as the
``grassvar`` console script and exits with its code, except that an
uncaught exception exits with code 4.
"""
import sys
import time
import traceback


def main() -> int:
    mode, t0, rest = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    if mode == "setup":
        import grassvar.cli
        from grassvar.scenarios import load_scenario

        for path in rest:
            load_scenario(path)
        print(f'{{"elapsed": {time.monotonic() - t0!r}, "loaded": {len(rest)}}}')
        return 0
    try:
        from grassvar.cli import main as cli_main

        code = cli_main(rest)  # returns after the CSV file is written and closed
    except Exception:  # uncaught, it would exit 1: the code of a failed check
        traceback.print_exc()
        return 4
    print(f'{{"elapsed": {time.monotonic() - t0!r}}}')
    return code


if __name__ == "__main__":
    sys.exit(main())
