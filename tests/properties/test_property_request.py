"""Property-based tests for the campaign request round trips.

A shard subprocess rebuilds its plan from the arguments its launcher
forwards, and a re-adopted service campaign rebuilds its spec from the
service journal.  Both only build the launcher's plan fingerprint if the
round trip is lossless:

* the one-shot (shard) parser rebuilds, from ``[experiment_id,
  *request.to_argv()]``, a request equal to the original;
* ``CampaignSpec.from_dict`` rebuilds, from the JSON form ``as_dict()``
  writes, a spec equal to the original.
"""

import json
import string
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.runtime.cli import build_parser, request_from_args
from repro.runtime.plans import plannable_experiment_ids
from repro.runtime.request import SCALE_PRESETS, CampaignRequest
from repro.runtime.service import CampaignSpec
from repro.runtime.vectorize import VECTORIZE_MODES

_SEEDS = st.one_of(st.none(), st.integers(0, 2**32 - 1))
_PATH_PARTS = st.text(string.ascii_letters + string.digits + "._-", min_size=1, max_size=8)
_CACHE_DIRS = st.one_of(
    st.none(),
    st.lists(_PATH_PARTS, min_size=1, max_size=4).map(lambda parts: Path("/" + "/".join(parts))),
)

requests = st.builds(
    CampaignRequest,
    experiment_id=st.sampled_from(plannable_experiment_ids()),
    scale=st.sampled_from(sorted(SCALE_PRESETS)),
    seed=_SEEDS,
    workers=st.integers(0, 64),
    batch_cells=st.integers(1, 64),
    vectorize=st.sampled_from(VECTORIZE_MODES),
    cache_dir=_CACHE_DIRS,
)

specs = st.builds(
    CampaignSpec,
    experiment_id=st.sampled_from(plannable_experiment_ids()),
    label=st.one_of(st.none(), st.from_regex(r"[A-Za-z0-9][A-Za-z0-9._@-]{0,15}", fullmatch=True)),
    tenant=st.text(min_size=1, max_size=12),
    priority=st.integers(-100, 100),
    shards=st.integers(1, 64),
    scale=st.one_of(st.none(), st.sampled_from(sorted(SCALE_PRESETS))),
    seed=_SEEDS,
    workers_per_shard=st.integers(1, 64),
    batch_cells=st.integers(1, 64),
    vectorize=st.sampled_from(VECTORIZE_MODES),
)


@settings(max_examples=100, deadline=None)
@given(request=requests)
def test_shard_parser_rebuilds_the_forwarded_request(request):
    request.validate()
    args = build_parser().parse_args([request.experiment_id, *request.to_argv()])
    rebuilt = request_from_args(args, args.experiments[0], args.workers)
    assert rebuilt == request
    assert rebuilt.to_argv() == request.to_argv()


@settings(max_examples=100, deadline=None)
@given(spec=specs)
def test_spec_json_form_round_trips(spec):
    spec.validate()
    # Through real JSON text, exactly as the service journal stores it.
    assert CampaignSpec.from_dict(json.loads(json.dumps(spec.as_dict()))) == spec
