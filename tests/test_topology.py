import copy
import dataclasses
import hashlib
import math
import pickle
import re

import numpy as np
import pytest

from vlcfed import SimConfig, Topology, UserNode, generate_topology
from vlcfed.config import ConfigError
from vlcfed.topology import UserColumns, ap_positions
from tests.conftest import make_user


def test_indoor_outdoor_split_matches_fraction():
    topo = generate_topology(SimConfig(n_users=50, indoor_fraction=0.8), seed=1)
    assert topo.n_users == 50
    assert topo.n_indoor == 40
    assert topo.n_outdoor == 10


def test_single_outdoor_user():
    topo = generate_topology(SimConfig(n_users=1, indoor_fraction=0.0), seed=3)
    assert topo.n_indoor == 0
    assert topo.n_outdoor == 1


def test_indoor_count_uses_conventional_rounding():
    topo = generate_topology(SimConfig(n_users=7, indoor_fraction=0.5), seed=0)
    assert topo.n_indoor == 4  # round(3.5) -> 4


def test_determinism_bit_identical():
    cfg = SimConfig(n_users=50)
    a = generate_topology(cfg, seed=7)
    b = generate_topology(cfg, seed=7)
    assert a == b
    c = generate_topology(cfg, seed=8)
    assert a != c


def _user_digest(topo):
    """sha256 over every UserNode field, floats as .hex(), so a changed bit or type shows."""
    h = hashlib.sha256()
    for user in topo.users.rows():
        for f in dataclasses.fields(user):
            value = getattr(user, f.name)
            parts = value if isinstance(value, tuple) else (value,)
            h.update(" ".join(v.hex() if type(v) is float else repr(v) for v in parts).encode() + b"\n")
    return h.hexdigest()


# The draw's transmit powers are ``10.0 ** array``. numpy's AVX-512 power
# differs from libm in the last bit for some of them, its AVX2-level power
# does not, so each case pins one digest per dispatch level. A runner
# without AVX-512, or NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
# AVX512_SPR", dispatches at the AVX2 level.
AVX512 = "X86_V4" in np.show_config(mode="dicts")["SIMD Extensions"]["found"]


@pytest.mark.parametrize(
    "overrides, seed, avx512_digest, avx2_digest",
    [
        (
            dict(n_users=1, indoor_fraction=0.0),
            0,
            "ae55e74f778aba3837ce36c2f2d14a9854eed31ef3dbf6073c8c486991c14f5d",
            "ae55e74f778aba3837ce36c2f2d14a9854eed31ef3dbf6073c8c486991c14f5d",
        ),
        (
            dict(n_users=1, indoor_fraction=1.0),
            3,
            "0589bd1d606b15195e7bd18637467b6ad9c2626561e2b976fbec53741a6940f2",
            "0589bd1d606b15195e7bd18637467b6ad9c2626561e2b976fbec53741a6940f2",
        ),
        (
            dict(n_users=7, indoor_fraction=0.5),
            0,
            "bae78e948c04015a3e109414c286d40a846fe546010d26a3503c98fec8d0b290",
            "bae78e948c04015a3e109414c286d40a846fe546010d26a3503c98fec8d0b290",
        ),
        (
            dict(n_users=50),
            1,
            "a6e9631a70c4812d42955ad056c85393ddbc0c421d1ba809411bf52eb5e281e2",
            "5bea971baa880e23136b0d28a7490f12db6fa83cbe50abac775504645ee5b2fc",
        ),
        (
            dict(n_users=60, indoor_fraction=0.0),
            5,
            "84b399c38f5aeb244edbf51cbde8fe94bfa8066da70481eaa67b29a970bc0361",
            "56a4ca3ede58548174132b42c210858223e0f4876f3fac320dfc995ef3705fd1",
        ),
        (
            dict(n_users=40, indoor_fraction=1.0),
            11,
            "e8b390ebace61f497a1c748f416c60a84ef507cb806f9430a7478a2568ae2ab6",
            "1e19a70b549a05e0ff5a7b8bc923dfe5f0f2c3ab2c0c5dafcc136aeaf7cd655d",
        ),
        (
            dict(n_users=200),
            12345,
            "63562f14ad6299837ebf6a751bb5741586455134562ea01180d103816a5035c0",
            "adaeed4bcb2b10cf0f3056631cdc193ba298f276c8c90ca0ad609d114b9f1e99",
        ),
        (
            dict(n_users=13, indoor_fraction=0.3, n_vlc_aps=1, tx_power_range_w=(0.2, 0.2)),
            2**31 - 1,
            "389ce78cf6c12604feca0ae6e3c60404b29e947a0c2ddc55a143b52393e1781d",
            "6f8555f137cfb31aae6f5976b0fc99341fb29eded49eb228261d0ab5467c93a4",
        ),
    ],
)
def test_user_bits_are_pinned(overrides, seed, avx512_digest, avx2_digest):
    # Digests taken from the draw that indexed numpy scalars; the plain-float
    # draw must reproduce every bit and type.
    expected = avx512_digest if AVX512 else avx2_digest
    assert _user_digest(generate_topology(SimConfig(**overrides), seed)) == expected


def test_all_users_inside_cell():
    for seed in range(5):
        topo = generate_topology(SimConfig(n_users=60), seed=seed)
        for u in topo.users.rows():
            assert math.hypot(u.position[0], u.position[1]) <= topo.cell_radius_m + 1e-9


def test_indoor_users_near_an_ap():
    cfg = SimConfig(n_users=40, indoor_fraction=1.0)
    topo = generate_topology(cfg, seed=11)
    for u in topo.users.rows():
        best = min(
            math.hypot(u.position[0] - ap[0], u.position[1] - ap[1])
            for ap in topo.vlc_aps
        )
        assert best <= cfg.indoor_spread_m + 1e-9


def test_radial_distribution_is_uniform_over_area():
    # Outdoor placement follows the uniform-area law P(d <= x) = (x/r)^2;
    # indoor users are deliberately re-clustered near APs, so test with
    # indoor_fraction = 0.
    scipy_stats = pytest.importorskip("scipy.stats")
    cfg = SimConfig(n_users=10_000, indoor_fraction=0.0)
    topo = generate_topology(cfg, seed=5)
    radii = np.array([math.hypot(u.position[0], u.position[1]) for u in topo.users.rows()])
    result = scipy_stats.kstest(radii, lambda x: (x / cfg.cell_radius_m) ** 2)
    assert result.statistic <= 0.02


def test_user_parameter_draws_respect_ranges():
    cfg = SimConfig(n_users=200)
    topo = generate_topology(cfg, seed=2)
    c_lo, c_hi = cfg.cycles_per_sample_range
    f_lo, f_hi = cfg.cpu_freq_range_hz
    p_lo, p_hi = cfg.tx_power_range_w
    for u in topo.users.rows():
        assert c_lo <= u.cycles_per_sample <= c_hi
        assert f_lo <= u.cpu_freq_hz <= f_hi
        assert p_lo <= u.tx_power_w <= p_hi
        assert u.shard_size == cfg.samples_per_user
        assert u.energy_budget_j == cfg.energy_budget_j


def test_ap_positions_layout():
    cfg = SimConfig(n_vlc_aps=4)
    aps = ap_positions(cfg)
    assert len(aps) == 4
    z = cfg.receiver_plane_height_m + cfg.ap_height_above_plane_m
    radii = sorted(math.hypot(ap[0], ap[1]) for ap in aps)
    assert all(ap[2] == z for ap in aps)
    assert radii[0] == pytest.approx(0.2 * cfg.cell_radius_m)
    assert radii[-1] == pytest.approx(0.8 * cfg.cell_radius_m)

    explicit = SimConfig(n_vlc_aps=2, ap_ring_radii_m=(12.0, 31.0))
    aps2 = ap_positions(explicit)
    assert sorted(math.hypot(a[0], a[1]) for a in aps2) == pytest.approx([12.0, 31.0])


def test_rejects_bad_config():
    with pytest.raises(ConfigError):
        generate_topology(SimConfig(n_users=0), seed=0)
    with pytest.raises(ConfigError):
        generate_topology(SimConfig(indoor_fraction=1.2), seed=0)


USER_TERMS = ("cycles_per_sample", "cpu_freq_hz", "capacitance_coeff", "tx_power_w", "energy_budget_j")
RULES = {**dict.fromkeys(USER_TERMS, "finite and > 0"), "id": "an integer", "indoor": "a bool",
         "position": "a tuple of three numbers"}


# The ids, flags and positions are values UserColumns.of would otherwise
# convert: a float id to its integer part, any value to a flag.
@pytest.mark.parametrize(
    "name, value",
    [(name, value) for name in USER_TERMS for value in (0.0, -1.0, math.nan, math.inf)]
    + [("id", 1.5), ("id", True), ("id", "3"), ("indoor", 2), ("indoor", 0), ("indoor", None)]
    + [("position", p) for p in [(10.0, 0.0), (10.0, 0.0, 0.85, 0.0), [10.0, 0.0, 0.85], (10.0, "0", 0.85)]],
)
def test_user_rejects_a_term_the_link_table_cannot_use(name, value):
    # The error names the user's id, or the rejected value when the id is bad.
    named = value if name == "id" else 7
    with pytest.raises(ValueError, match=rf"^user {re.escape(str(named))}: {name} must be {RULES[name]}, got "):
        dataclasses.replace(make_user(id=7), **{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", range(3))
def test_user_rejects_a_non_finite_position(axis, value):
    xyz = [10.0, 0.0, 0.85]
    xyz[axis] = value
    with pytest.raises(ValueError, match="user 3: position must be finite"):
        make_user(id=3, xy=tuple(xyz[:2]), z=xyz[2])


@pytest.mark.parametrize("size", [1, 9, np.int64(9), np.int32(1)])
def test_user_accepts_an_integer_shard_size(size):
    assert make_user(shard_size=size).shard_size == size


@pytest.mark.parametrize("size", [0, -3, np.int64(0), True, 2.5, 3.0, math.nan, math.inf, "9"])
def test_user_rejects_a_shard_size_that_is_no_positive_integer(size):
    with pytest.raises(ValueError, match="user 5: shard_size must be an integer >= 1"):
        make_user(id=5, shard_size=size)


def test_user_keeps_the_frozen_dataclass_contract():
    # A frozen dataclass whose __post_init__ checks every field, on
    # construction and on dataclasses.replace.
    user = make_user(id=4, xy=(3.0, -2.0), indoor=True)
    terms = [getattr(user, f.name) for f in dataclasses.fields(user)]
    positional = type(user)(*terms)
    assert positional == user and hash(positional) == hash(user) and repr(positional) == repr(user)
    assert list(vars(user)) == [f.name for f in dataclasses.fields(user)]
    moved = dataclasses.replace(user, shard_size=3)
    assert moved.shard_size == 3 and moved != user and dataclasses.replace(moved, shard_size=9) == user
    with pytest.raises(dataclasses.FrozenInstanceError):
        user.shard_size = 3
    with pytest.raises(ValueError, match="user 4: shard_size must be an integer >= 1"):
        dataclasses.replace(user, shard_size=0)
    with pytest.raises(TypeError):
        type(user)(*terms[:-1])


def test_a_topology_rejects_two_users_with_one_id():
    # Selections name users by id, so a repeated id would merge two users.
    users = [make_user(id=3), make_user(id=1, xy=(5.0, 5.0)), make_user(id=3, xy=(12.0, 0.0))]
    with pytest.raises(ValueError, match="user ids must be distinct, got id 3 more than once"):
        Topology(cell_radius_m=50.0, bs_position=(0.0, 0.0), vlc_aps=(), users=tuple(users))
    topo = generate_topology(SimConfig(n_users=6), seed=0)
    rows = topo.users.rows()
    with pytest.raises(ValueError, match="got id 0 more than once"):
        dataclasses.replace(topo, users=(*rows, rows[0]))


class TestUserColumns:
    """A drawn topology keeps its users as columns; ``rows()`` builds them as ``UserNode``s."""

    FIELDS = [f.name for f in dataclasses.fields(UserNode)]

    @pytest.mark.parametrize("n, indoor_fraction, seed", [(1, 0.0, 0), (13, 0.3, 4), (50, 0.8, 1), (200, 0.8, 12345)])
    def test_each_column_holds_its_rows_field(self, n, indoor_fraction, seed):
        topo = generate_topology(SimConfig(n_users=n, indoor_fraction=indoor_fraction), seed)
        users = topo.users
        rows = users.rows()
        assert isinstance(users, UserColumns) and len(users) == len(rows) == n
        for name in self.FIELDS:
            column = getattr(users, name).tolist()
            if name == "position":
                column = [tuple(p) for p in column]
            assert column == [getattr(u, name) for u in rows]
        assert topo.n_indoor == sum(u.indoor for u in rows) == int(math.floor(indoor_fraction * n + 0.5))
        assert [type(getattr(rows[0], name)) for name in self.FIELDS] == [int, tuple, bool, int] + [float] * 5

    @pytest.mark.parametrize("n", [1, 13, 50, 200])
    def test_a_copy_built_from_nodes_equals_the_draw(self, n):
        cfg = SimConfig(n_users=n)
        drawn = generate_topology(cfg, 7)
        nodes = drawn.users.rows()
        copy = Topology(drawn.cell_radius_m, drawn.bs_position, drawn.vlc_aps, nodes)
        assert copy == drawn and drawn == copy and copy.users.rows() == nodes
        assert dataclasses.replace(drawn, users=nodes) == drawn
        for name in self.FIELDS:
            a, b = getattr(copy.users, name), getattr(drawn.users, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert generate_topology(cfg, 8) != drawn

    def test_columns_must_list_indoor_users_first(self):
        # Nodes are sorted indoor first; columns passed in must already be.
        drawn = generate_topology(SimConfig(n_users=6, indoor_fraction=0.5), 0)
        columns = drawn.users
        swapped = UserColumns(*(np.roll(getattr(columns, name), 1, axis=0) for name in self.FIELDS))
        assert swapped.indoor.tolist() == [False, True, True, True, False, False]
        with pytest.raises(ValueError, match="^indoor users must come first, got indoor user 2 after an outdoor user$"):
            Topology(drawn.cell_radius_m, drawn.bs_position, drawn.vlc_aps, swapped)
        with pytest.raises(ValueError, match="indoor users must come first"):
            dataclasses.replace(drawn, users=swapped)
        assert dataclasses.replace(drawn, users=swapped.rows()).users.id.tolist() == [0, 1, 2, 5, 3, 4]

    def test_columns_are_read_only_in_copies_too(self):
        users = generate_topology(SimConfig(n_users=5), 0).users
        for clone in (users, pickle.loads(pickle.dumps(users)), copy.deepcopy(users)):
            assert clone == users
            for name in self.FIELDS:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(clone, name)[0] = 1

    def test_an_overflowing_indoor_position_names_the_first_user(self):
        # An AP ring and spread this wide push some indoor users past the
        # largest float. The draw checks the column and raises that user's
        # own error, without a numpy warning (Tier-1 turns those into errors).
        cfg = SimConfig(
            n_users=30, n_vlc_aps=1, indoor_fraction=1.0, ap_ring_radii_m=(1.5e308,), indoor_spread_m=1e308
        )
        with pytest.raises(ValueError, match=r"^user 10: position must be finite, got \(-inf, "):
            generate_topology(cfg, 0)
