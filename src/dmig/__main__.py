"""Entry point of ``python -m dmig`` and of the ``dmig`` script."""

import gc
import os
import sys

# dmig makes no BLAS call, so an OpenBLAS worker thread, which keeps
# spinning for a while after numpy loads, only takes CPU time from the
# --workers threads and epoch processes. The setting takes effect only
# before numpy first loads.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    """Run the CLI with numpy's BLAS on one thread, unless the caller set a count.

    The process is dmig's own and runs no thread yet, so eval may fork.
    The import heap lives until exit, so it is frozen: collections skip it.
    """
    if not any(name in os.environ for name in _BLAS_THREADS):
        os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
    from . import cli
    gc.freeze()

    cli._OWN_PROCESS = True
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
