"""Symbolic cost-model engine: Table 2 as executable algebra.

The analysis tier attaches a :class:`CostEnvelope` (sympy upper bounds
for rounds/messages/tokens, plus the Haeupler–Kuhn lower envelope where
it applies) to each registered :class:`~repro.registry.AlgorithmSpec`,
and closes the loop against measurement:

* :func:`predict` evaluates an envelope on a concrete (scenario, plan)
  pair — the prediction half of the ``repro validate-model`` sweep and
  the bound source for :class:`repro.obs.EnvelopeMonitor` and the bench
  fleet's ``envelope`` gate.
* :func:`validate_model` sweeps the registry and reports per-case
  measured/predicted ratios.
* :func:`argmin_bound` answers parameter-space queries (optimal α, T, L)
  over the algebra alone, without burning simulation time.

Deliberately imported lazily by :mod:`repro.registry` and the
observability stack so the core stays usable if sympy is absent.
"""

from .envelopes import ENVELOPES, CostEnvelope, envelope_for
from .predict import Prediction, argmin_bound, evaluate, predict
from .symbols import SYMBOL_TABLE, SYMBOLS, symbol
from .validate import failures, table_rows, validate_model

__all__ = [
    "CostEnvelope",
    "ENVELOPES",
    "Prediction",
    "SYMBOLS",
    "SYMBOL_TABLE",
    "argmin_bound",
    "envelope_for",
    "evaluate",
    "failures",
    "predict",
    "symbol",
    "table_rows",
    "validate_model",
]
