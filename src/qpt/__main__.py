"""The ``qpt`` command: ``python -m qpt`` and the console script both enter
through ``main``."""

import os
import sys


def main(argv: "list[str] | None" = None) -> int:
    """Run the CLI on one BLAS thread. The thread count is fixed before numpy
    loads: some BLAS calls round differently on more threads, and a report's
    bytes must not depend on the machine. Once numpy is loaded in the
    process, the setting no longer takes effect."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
