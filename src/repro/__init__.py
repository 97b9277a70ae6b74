"""FRL-FI: transient fault analysis for federated reinforcement learning navigation.

A from-scratch reproduction of *FRL-FI: Transient Fault Analysis for Federated
Reinforcement Learning-Based Navigation Systems* (DATE 2022).  The package
provides the full stack the paper's evaluation depends on -- a numpy neural
network substrate, quantization codecs, a bit-level fault-injection engine,
GridWorld and drone navigation environments, Q-learning / REINFORCE agents, a
federated learning layer, the proposed mitigation schemes and an analytical
drone performance model -- plus one campaign plan per paper figure and table
(a cell function and a plan builder in :mod:`repro.core.experiments`).
:class:`repro.runtime.CampaignRunner` runs any of them by id.

Quickstart::

    from repro.core import GridWorldScale
    from repro.runtime import CampaignRunner

    runner = CampaignRunner(gridworld_scale=GridWorldScale.tiny())
    print(runner.run("fig9").render())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
