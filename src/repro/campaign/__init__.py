"""repro.campaign — declarative, resumable experiment campaigns.

A *campaign* is a named, declarative description of one evaluation artefact
(a paper figure/table or a custom sweep): which experiment module assembles
it, which workloads it covers, and which (system, DLA) configuration
variants it simulates.  The subsystem around that description provides:

* :mod:`repro.campaign.spec` — the :class:`CampaignSpec`/:class:`ConfigVariant`
  dataclasses with a dict/JSON form, validation, and a content fingerprint;
* :mod:`repro.campaign.registry` — every paper figure/table registered as a
  built-in campaign, plus scenario sweeps beyond the paper's set;
* :mod:`repro.campaign.store` — a resumable result store under
  ``.repro_cache/campaigns/<name>/`` keyed by the same content fingerprints
  as the simulation disk cache, so a killed campaign restarts where it left
  off and re-runs nothing;
* :mod:`repro.campaign.scheduler` — flattens a spec into (workload, config)
  cells and drives them through
  :class:`~repro.experiments.parallel.ParallelExperimentRunner`;
* :mod:`repro.campaign.render` — CSV/JSON/Markdown artifact renderers;
* :mod:`repro.campaign.cli` — the ``repro`` console entry point
  (``list`` / ``run`` / ``merge`` / ``render`` / ``status`` / ``monitor`` /
  ``dispatch`` / ``clean``).
"""

from repro.campaign.registry import get_campaign, list_campaigns, register
from repro.campaign.scheduler import CampaignScheduler, run_campaign
from repro.campaign.spec import CampaignSpec, ConfigVariant
from repro.campaign.store import CampaignStore

__all__ = [
    "CampaignScheduler",
    "CampaignSpec",
    "CampaignStore",
    "ConfigVariant",
    "get_campaign",
    "list_campaigns",
    "register",
    "run_campaign",
]
