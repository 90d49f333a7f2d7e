"""Run one uccsim command line in process and fail if its peak RSS reaches a limit.

Usage: PYTHONPATH=src python tests/peak_rss.py LIMIT_MB SUBCOMMAND [ARG...]

Prints the command's exit code, the process's peak resident set size
(ru_maxrss, which counts the interpreter and numpy too) and the elapsed time.
Exits 0 only when the command exits 0 and peaks under LIMIT_MB megabytes.
"""

import resource
import sys
import time

from uccsim import cli


def main(argv: list[str]) -> int:
    limit_mb = float(argv[0])
    start = time.perf_counter()
    code = cli.main(argv[1:])
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"exit {code}, peak RSS {peak_mb:.0f} MB (limit {limit_mb:g} MB), {elapsed:.1f} s")
    return 0 if code == 0 and peak_mb < limit_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
