"""Two names that the pipeline benchmark in `perfbench/` reads by this
module's path: every run records `kernel_backend()`, and `--trace 1` times
the closure by patching `dyck_nonempty` here (the patch reaches every module
that bound the same function, `matdecide.pda` too). The closure itself lives
in `matdecide.pda`. Once the benchmark reads both names from there, this
module can go.
"""

from matdecide.pda import dyck_nonempty

__all__ = ["dyck_nonempty", "kernel_backend"]


def kernel_backend() -> str:
    """Name of the kernel implementation; there is one, in pure Python."""
    return "pure"
