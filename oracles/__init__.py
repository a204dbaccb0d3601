"""Frozen reference implementations for the equivalence suites and benchmarks.

Nothing under ``src/`` may import this package (a tier-1 test enforces it):
the modules here are executable specifications the array-native engine is
checked and timed against, not code the ``optrr`` program runs.

* :mod:`oracles.optrr_loop` — the pre-array ``Individual``-list OptRR loop;
* :mod:`oracles.individual` — the per-candidate ``Individual``, its list
  helpers and the population-to-list views;
* :mod:`oracles.archive` — the sequential ``Individual``-list optimal set Ω;
* :mod:`oracles.emoo` — ``Individual``-list forms of the EMOO primitives;
* :mod:`oracles.rr` — the scalar RR operators, per-matrix evaluation and the
  broadcast disguise;
* :mod:`oracles.kernels` — the posterior-tensor evaluation, slogdet-screened
  inversion and pure-Python distance forms of the batched kernels.

Run from the repository root (``python -m pytest`` puts it on ``sys.path``).
"""
