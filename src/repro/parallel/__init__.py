"""What remains of the retired sharded-replay package.

Sharded multi-worker replay was deleted; :mod:`repro.service` is the
one multi-process runtime.  Only :mod:`repro.parallel.merge` is left,
holding :func:`~repro.parallel.merge.strip_volatile`: the service
runner imports it, and so does the benchmark's own test file
(``repobench/test_repobench.py``), which is frozen with the benchmark
and may not change.  Nothing is re-exported here.
"""
