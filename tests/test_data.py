"""Dataset, partitioning, and forget-split tests."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scale_fu import data, nn


def test_synthetic_shapes_and_determinism():
    a = data.gen_synthetic(4, 16, 100, 0.15, seed=42)
    b = data.gen_synthetic(4, 16, 100, 0.15, seed=42)
    assert a.size == 400 and a.dim == 16 and a.num_classes == 4
    assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.labels, b.labels)
    c = data.gen_synthetic(4, 16, 100, 0.15, seed=43)
    assert not np.array_equal(a.inputs, c.inputs)
    counts = np.bincount(a.labels, minlength=4)
    assert np.all(counts == 100)


def test_synthetic_zero_spread_collapses_to_means():
    ds = data.gen_synthetic(3, 8, 5, 0.0, seed=1)
    for c in range(3):
        rows = ds.inputs[ds.labels == c]
        assert np.allclose(rows, rows[0])
        assert abs(np.linalg.norm(rows[0]) - 1.0) < 1e-12


def test_synthetic_low_spread_linearly_separable():
    """Training oracle: a bare linear softmax layer must reach accuracy 1.0."""
    ds = data.gen_synthetic(4, 16, 50, 0.05, seed=7)
    spec = nn.LayerSpec(nn.DENSE, in_dim=16, out_dim=4, activation=nn.ACT_NONE)
    model = nn.Model(
        arch_id="linear",
        input_shape=(16,),
        num_classes=4,
        layers=(spec,),
        flat=nn.init_params((spec,), seed=0),
    )
    batch = nn.Batch(ds.inputs, ds.labels)
    for _ in range(300):
        _, grad = nn.loss_and_grads(model, batch)
        model = nn.sgd_step(model, grad, 0.5)
    acc = float((nn.forward(model, batch).argmax(axis=1) == ds.labels).mean())
    assert acc == 1.0


def write_idx_pair(tmp_path, images, labels):
    n, rows, cols = images.shape
    img = struct.pack(">iiii", data.IDX_IMAGES_MAGIC, n, rows, cols) + images.tobytes()
    lab = struct.pack(">ii", data.IDX_LABELS_MAGIC, n) + labels.tobytes()
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    ip.write_bytes(img)
    lp.write_bytes(lab)
    return ip, lp


def test_load_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 4, 3), dtype=np.uint8)
    labels = rng.integers(0, 5, size=7, dtype=np.uint8)
    labels[0] = 4  # pin num_classes
    ip, lp = write_idx_pair(tmp_path, images, labels)
    ds = data.load_idx(ip, lp)
    assert ds.size == 7 and ds.dim == 12
    assert np.array_equal(ds.labels, labels.astype(np.int64))
    assert np.allclose(ds.inputs, images.reshape(7, 12) / 255.0)
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0


def test_load_idx_errors_name_offending_field(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8)
    labels = np.array([0, 1, 1], dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)

    bad_magic = (tmp_path / "badmagic.idx")
    bad_magic.write_bytes(struct.pack(">iiii", 0x123, 3, 2, 2) + images.tobytes())
    with pytest.raises(data.DataError, match="images .*magic"):
        data.load_idx(bad_magic, lp)

    truncated = tmp_path / "short.idx"
    truncated.write_bytes(ip.read_bytes()[:-3])
    with pytest.raises(data.DataError, match="data bytes"):
        data.load_idx(truncated, lp)

    other = tmp_path / "labs2.idx"
    other.write_bytes(struct.pack(">ii", data.IDX_LABELS_MAGIC, 2) + labels[:2].tobytes())
    with pytest.raises(data.DataError, match="count"):
        data.load_idx(ip, other)


def test_largest_remainder_exact_total_and_ties():
    p = np.array([0.5, 0.25, 0.25])
    assert data.largest_remainder(p, 5).sum() == 5
    # equal fractional parts: remainder goes to lowest index first
    q = data.largest_remainder(np.array([0.5, 0.5]), 3)
    assert q.tolist() == [2, 1]


@settings(max_examples=100, deadline=None)
@given(
    n_clients=st.integers(1, 12),
    alpha=st.floats(0.05, 50.0),
    seed=st.integers(0, 10_000),
)
def test_partition_is_a_partition(n_clients, alpha, seed):
    ds = data.gen_synthetic(3, 4, 20, 0.1, seed=9)
    part = data.dirichlet_partition(ds, n_clients, alpha, seed)
    part.validate_against(ds)  # disjoint cover, no empty client
    assert part.n_clients == n_clients


def test_partition_high_alpha_near_uniform():
    ds = data.gen_synthetic(4, 4, 100, 0.1, seed=3)
    for seed in range(20):
        part = data.dirichlet_partition(ds, 4, alpha=1000.0, seed=seed)
        for ix in part.indices:
            hist = np.bincount(ds.labels[ix], minlength=4) / ix.size
            assert np.all(np.abs(hist - 0.25) < 0.05)


def test_partition_infeasible_and_repair():
    ds = data.gen_synthetic(2, 3, 3, 0.1, seed=0)  # 6 samples
    with pytest.raises(data.PartitionError):
        data.dirichlet_partition(ds, 7, 1.0, seed=0)
    # tiny alpha concentrates mass; repair must still give everyone a sample
    for seed in range(30):
        part = data.dirichlet_partition(ds, 6, alpha=0.01, seed=seed)
        part.validate_against(ds)


def make_fixture():
    ds = data.gen_synthetic(4, 8, 25, 0.1, seed=11)
    part = data.dirichlet_partition(ds, 5, 1.0, seed=11)
    return ds, part


def test_split_client_granularity():
    ds, part = make_fixture()
    req = data.UnlearnRequest(granularity="client", clients=(2,))
    split = data.build_split(ds, part, req)
    assert np.array_equal(split.forget, part.indices[2])
    assert split.forget.size + split.remain.size == ds.size
    assert split.remain_per_client[2].size == 0
    assert np.array_equal(split.remain_per_client[0], part.indices[0])
    assert not set(split.forget.tolist()) & set(split.remain.tolist())


def test_split_class_granularity():
    ds, part = make_fixture()
    req = data.UnlearnRequest(granularity="class", clients=(1,), class_set=(0, 2))
    split = data.build_split(ds, part, req)
    assert np.all(np.isin(ds.labels[split.forget], [0, 2]))
    own = part.indices[1]
    want = own[np.isin(ds.labels[own], [0, 2])]
    assert np.array_equal(split.forget, np.sort(want))


def test_split_class_empty_is_degenerate():
    ds, part = make_fixture()
    # pick a client and a class it does not hold
    for n in range(part.n_clients):
        held = set(ds.labels[part.indices[n]].tolist())
        missing = set(range(4)) - held
        if missing:
            req = data.UnlearnRequest(
                granularity="class", clients=(n,), class_set=(missing.pop(),)
            )
            with pytest.raises(data.RequestError, match="selects no samples"):
                data.build_split(ds, part, req)
            return
    pytest.skip("every client holds every class in this fixture")


def test_split_sample_granularity_count_and_determinism():
    ds, part = make_fixture()
    req = data.UnlearnRequest(
        granularity="sample", clients=(3,), sample_fraction=0.3, seed=77
    )
    s1 = data.build_split(ds, part, req)
    s2 = data.build_split(ds, part, req)
    want = int(np.ceil(0.3 * part.indices[3].size))
    assert s1.forget.size == want
    assert np.array_equal(s1.forget, s2.forget)
    assert np.all(np.isin(s1.forget, part.indices[3]))
    other = data.build_split(
        ds, part,
        data.UnlearnRequest(granularity="sample", clients=(3,), sample_fraction=0.3, seed=78),
    )
    assert not np.array_equal(s1.forget, other.forget)


def test_split_multi_client_union():
    ds, part = make_fixture()
    req = data.UnlearnRequest(granularity="client", clients=(0, 4))
    split = data.build_split(ds, part, req)
    want = np.sort(np.concatenate([part.indices[0], part.indices[4]]))
    assert np.array_equal(split.forget, want)


INDEX = st.integers(0, 10**6)

# one request of each granularity, as the grammar writes it: one client and
# only its granularity's fields
REQUESTS = st.one_of(
    st.builds(lambda n: data.UnlearnRequest("client", (n,)), INDEX),
    st.builds(lambda n, cs: data.UnlearnRequest("class", (n,), class_set=tuple(cs)),
              INDEX, st.lists(INDEX, min_size=1, max_size=5)),
    st.builds(lambda n, f: data.UnlearnRequest("sample", (n,), sample_fraction=f),
              INDEX, st.floats(0.0, 1.0, exclude_min=True)),
)


@settings(max_examples=300, deadline=None)
@given(req=REQUESTS, seed=st.integers(0, 2**32 - 1))
@example(req=data.UnlearnRequest("sample", (3,), sample_fraction=0.123456789), seed=7)
def test_request_string_round_trips(req, seed):
    req = dataclasses.replace(req, seed=seed)
    assert data.UnlearnRequest.parse(req.describe(), seed) == req


def test_request_validation():
    with pytest.raises(data.RequestError):
        data.UnlearnRequest(granularity="client", clients=())
    with pytest.raises(data.RequestError):
        data.UnlearnRequest(granularity="class", clients=(0,))
    with pytest.raises(data.RequestError):
        data.UnlearnRequest(granularity="sample", clients=(0,), sample_fraction=0.0)
    with pytest.raises(data.RequestError):
        data.UnlearnRequest(granularity="blob", clients=(0,))
    ds, part = make_fixture()
    with pytest.raises(data.RequestError, match="outside partition"):
        data.build_split(ds, part, data.UnlearnRequest(granularity="client", clients=(99,)))
