import hypothesis
import numpy as np
import pytest

from itolab import randmat
from itolab.lq import batch_norm_q

np.seterr(all="warn", under="ignore")

hypothesis.settings.register_profile(
    "default", max_examples=30, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.register_profile("fast", max_examples=8, deadline=None)
hypothesis.settings.load_profile("default")


@pytest.fixture
def law_builds(monkeypatch):
    """A list that gets one entry, the ensemble, per operator-norm law built,
    starting from an empty law memo."""
    builds = []
    monkeypatch.setattr(randmat, "_last_law", {})
    table = randmat._summand_table  # called once per law

    def counted(ens, replaced):
        builds.append(ens)
        return table(ens, replaced)

    monkeypatch.setattr(randmat, "_summand_table", counted)
    return builds


def norm_q(x, q: float) -> float:
    """||x||_q of one LqElement through the batched kernel."""
    weights = x.space.weights if x.space is not None else None
    return float(batch_norm_q(x.values, q, weights))
