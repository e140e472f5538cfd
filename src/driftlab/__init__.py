"""driftlab: a desk-scale laboratory for domain adaptation under covariate shift.

Pieces: exact discrete optimal transport with asymmetric marginal
relaxation (ot), a neural dual critic with a slope penalty (dualcritic),
conditional mutual information estimation by conditional noise
contrastive estimation (cmi), small trainable networks (model) on a
minimal autodiff engine (tensorcore), synthetic shifted datasets (data),
the adversarial training loop (pipeline), evaluation statistics with
Bayes-error bounds and the Friedman test (evalstats), one reader for the
line-oriented input files (textio), and a CLI (cli).
"""

__version__ = "0.1.0"
