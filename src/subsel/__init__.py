"""Model-oriented selection of informative subsamples from large datasets.

The package picks the rows of a big dataset that carry the most information
about a regression model, using classical experimental-design criteria:

- ``select_sequential``: greedy design-point augmentation with per-batch refits
- ``select_iboss``: extreme-value selection along each covariate
- ``select_robust``: minimax-robust design measures on a candidate grid
- ``criteria``: D/A/I losses, robust losses, bias-aware traces, optimality checks
- ``model_core``: model bases, design measures, information matrices
- ``estimation``: least-squares and logistic fitting, classification scoring
- ``ingest_sim``: CSV ingest, standardization, grids, synthetic data generators, artifact writers

The package itself exports nothing: each public name is imported from its
module, as in ``from subsel.select_iboss import run_iboss``.
"""
