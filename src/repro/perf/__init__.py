"""Wall-clock measurement of the simulator itself.

Everything else in this repository measures *simulated* time;
:mod:`repro.perf.timer` is the one place that reads the host clock, so
the sweep and cluster engines can report how long jobs took under their
reports' ``wall`` keys.  The repository's benchmark lives in
``benchmarks/e2e`` (see its README); this package imports nothing, so
importing the timer loads nothing else.
"""
