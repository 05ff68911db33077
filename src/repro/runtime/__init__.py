"""Scale-out runtime: campaigns, the async service, and the result store.

The search phase runs on a workstation CPU (paper §VI-A), so serving
many (network, platform, mode, seed) scenarios is an embarrassingly
parallel batch problem.  This package owns that layer:

* :mod:`repro.runtime.campaign` — job descriptions, the fan-out of a
  grid over forked worker processes, and LUT resolution through the
  tiered cache (one-shot batch runs).
* :mod:`repro.runtime.lutcache` — the tiered, sharded LUT cache:
  local ``platform/network`` shard directories chained with remote
  shard servers, so profiling cost is paid once per fleet.
* :mod:`repro.runtime.service` — the long-running asyncio service:
  priority job queue, bounded workers, HTTP API with SSE progress
  streams (``repro serve``).
* :mod:`repro.runtime.store` — the persistent sqlite result store
  keyed by full job identity (repeat submissions become cache hits).
* :mod:`repro.runtime.client` — the stdlib HTTP client behind
  ``repro submit``.
"""

from repro.runtime.campaign import (
    Campaign,
    CampaignJob,
    CampaignResult,
    PLATFORM_FACTORIES,
    execute_job,
    grid,
    load_or_profile_lut,
    lut_cache_path,
    require_canonical_platform,
)
from repro.runtime.client import ServiceClient
from repro.runtime.lutcache import (
    LocalTier,
    LutKey,
    LutResolution,
    RemoteTier,
    TieredLutCache,
    open_cache,
)
from repro.runtime.service import CampaignService, JobRecord, checkpoints_of
from repro.runtime.store import ResultStore, StoredResult, job_key

__all__ = [
    "Campaign",
    "CampaignJob",
    "CampaignResult",
    "CampaignService",
    "JobRecord",
    "LocalTier",
    "LutKey",
    "LutResolution",
    "PLATFORM_FACTORIES",
    "RemoteTier",
    "ResultStore",
    "ServiceClient",
    "StoredResult",
    "TieredLutCache",
    "checkpoints_of",
    "execute_job",
    "grid",
    "job_key",
    "load_or_profile_lut",
    "lut_cache_path",
    "open_cache",
    "require_canonical_platform",
]
