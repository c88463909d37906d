"""The package's own code leaves no reference cycles behind.

A nested function that calls itself is a cycle (the function holds its
closure cell, the cell holds the function), and it keeps everything it
captured alive until the cyclic collector runs.  The test pauses the
collector, runs an application, a composition, a sampled check and a
render, and then asks the collector for what it would free: no function of
the package may be among it.
"""
import gc
import types

from shapeinv import clear_caches, su2
from shapeinv.symx import Const, Mul, render
from shapeinv.verify import SamplePlan, check_proportional, default_battery


def _exercise():
    clear_caches()  # so that the kernels run instead of hitting a memo
    gens = su2.build_reduced_generators()  # lattice-shift operators
    f = default_battery("q")[3]
    applied = gens.Lp.apply(f)
    composed = gens.Lp @ gens.Lm
    check_proportional(Mul(Const(3), f), f, SamplePlan(seed=1, count=8))
    render(applied)
    composed.render()


def test_package_paths_leave_no_reference_cycles():
    enabled, flags = gc.isenabled(), gc.get_debug()
    earlier = list(gc.garbage)
    gc.collect()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        _exercise()
        gc.collect()
        found = sorted({f"{g.__module__}.{g.__qualname__}" for g in gc.garbage
                        if isinstance(g, types.FunctionType)
                        and (g.__module__ or "").startswith("shapeinv")})
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = earlier
        if enabled:
            gc.enable()
        clear_caches()
    assert not found, "functions left in reference cycles: " + ", ".join(found)
