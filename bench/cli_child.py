"""``python -m su2branch ARGS`` with timestamps, for traced cli-cold runs.

Does what ``python -m su2branch`` does (import the package, then run
``cli.main``) and prints ``CHILD_STAMPS t0 t1 t2`` as its last line on
standard error: entry into this script, end of the import, end of
``main``.  The benchmark turns them into the ``cli.python_startup``,
``cli.import`` and ``cli.main.<subcommand>`` spans.
"""

import sys
import time

t0 = time.monotonic_ns()
from su2branch import cli  # noqa: E402

t1 = time.monotonic_ns()
try:
    rc = cli.main(sys.argv[1:])
finally:
    t2 = time.monotonic_ns()
    sys.stdout.flush()
    print(f"CHILD_STAMPS {t0} {t1} {t2}", file=sys.stderr)
sys.exit(rc)
