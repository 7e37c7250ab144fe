import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from optoperceptron.pcg import Pcg64


@given(seed=st.integers(0, 2**130), n=st.integers(0, 300))
@example(seed=0, n=300)
@example(seed=2**32 - 1, n=300)
@example(seed=2**32, n=300)
@example(seed=2**64, n=300)
@example(seed=2**63 + 5, n=300)
def test_stream_draws_numpys_first_child_values(seed, n):
    stream = Pcg64(seed)
    reference = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0]).random(n).tolist()
    assert [stream.random().hex() for _ in range(n)] == [u.hex() for u in reference]
