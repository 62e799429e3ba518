"""Experiment harness: one module per paper table/figure, plus ablations.

The CLI is :mod:`repro.experiments.runner`; it imports a subcommand's
module only when that subcommand runs, and so does this package.
"""
