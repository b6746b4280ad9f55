import numpy as np
import pytest

from treesample import ConfigError, TmdConfig, WeightFn, const_weights, parse_weights


def test_const_weight_is_flat():
    c = TmdConfig(depth=18, weights=const_weights(0.5))
    assert c.level_weight(1) == 0.5
    assert c.level_weight(17) == 0.5


def test_table_weight_indexing():
    c = TmdConfig(depth=4, weights=WeightFn("table", (1.0, 2.0, 3.0)))
    assert [c.level_weight(i) for i in (1, 2, 3)] == [1.0, 2.0, 3.0]
    # a depth-d computation reads levels 1 .. d - 1 only
    for level in (0, 4, 5):
        with pytest.raises(ConfigError, match=r"weight level must be in 1\.\.3"):
            c.level_weight(level)
    with pytest.raises(ConfigError, match=r"in 1\.\.17, got 18"):
        TmdConfig(depth=18, weights=const_weights(0.5)).level_weight(18)


@pytest.mark.parametrize("bad", ["const", "const:", "const:x", "table:",
                                 "gauss:1", "1.0", "const:1,2", "const:1.0,"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        parse_weights(bad)


def test_parse_rejects_pascal_alias():
    with pytest.raises(ConfigError, match="pascal"):
        parse_weights("pascal")
    with pytest.raises(ConfigError, match="reserved"):
        parse_weights("  PASCAL ")


def test_weight_fn_refuses_an_unknown_kind():
    # the parser refuses "pascal" by name; a record built directly is refused too
    with pytest.raises(ConfigError) as info:
        WeightFn("pascal", (1.0,))
    assert str(info.value) == "weight kind must be one of ('const', 'table'), got 'pascal'"


@pytest.mark.parametrize("text, head", [("tab:1", "tab"), (" GAUSS :1", "gauss")])
def test_parse_weights_refuses_an_unknown_preset_through_the_choice_gate(text, head):
    with pytest.raises(ConfigError) as info:
        parse_weights(text)
    assert str(info.value) == f"weight preset must be one of ('const', 'table'), got {head!r}"


def test_parse_round_trips_through_spec_string():
    for text in ("const:1.0", "const:0.25", "table:1.0,0.5,2.0"):
        w = parse_weights(text)
        assert parse_weights(w.spec_string()) == w


@pytest.mark.parametrize("make", [int, np.float32, np.float64])
def test_spec_string_of_any_real_weight_reparses(make):
    const = WeightFn("const", [make(2)])
    table = WeightFn("table", [make(3), make(1)])
    for w in (const, table):
        assert parse_weights(w.spec_string()) == w
    assert const.spec_string() == "const:2.0"  # one preset, so one cache key
    assert table.spec_string() == "table:3.0,1.0"
    for w in (const, table):
        assert type(w.weights) is tuple and all(type(x) is float for x in w.weights)
    assert isinstance(hash(TmdConfig(depth=3, weights=table)), int)  # the list became a tuple


@pytest.mark.parametrize("weights", [(), (2.0, 2.0), (1.0, "x")],
                         ids=["none", "two", "junk-second"])
def test_const_holds_exactly_one_weight(weights):
    # a second weight would never be read, so two unequal constants would
    # share one preset, and so one cache key
    with pytest.raises(ConfigError, match="exactly one weight"):
        WeightFn("const", weights)


def test_array_table_is_read_as_a_tuple():
    # an array has no truth value: the weights are a tuple before any test
    assert WeightFn("table", np.array([1.0, 2.0])) == WeightFn("table", (1.0, 2.0))
    assert WeightFn("const", np.array([2.0])) == const_weights(2.0)
    with pytest.raises(ConfigError, match="exactly one weight"):
        WeightFn("const", np.array([1.0, 2.0]))
    for kind in ("const", "table"):
        for weights in (2.0, np.array(2.0)):
            with pytest.raises(ConfigError, match="weights must be iterable"):
                WeightFn(kind, weights)


def test_weight_past_the_float_range_is_refused():
    with pytest.raises(ConfigError):
        const_weights(10 ** 400)
    with pytest.raises(ConfigError):
        WeightFn("table", [1.0, 10 ** 400])


# a weight that is no real number, bool included, is refused like a
# non-positive one
@pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), "2", True,
                                   np.bool_(True), None, 1 + 0j])
def test_nonpositive_weights_rejected(value):
    with pytest.raises(ConfigError):
        const_weights(value)
    with pytest.raises(ConfigError):
        WeightFn("table", (1.0, value))


def test_weight_refusals_name_the_weight():
    with pytest.raises(ConfigError, match=r"^weight must be > 0, got -1\.0$"):
        const_weights(-1)
    with pytest.raises(ConfigError, match=r"^weight must be > 0, got -3\.0$"):  # the least
        WeightFn("table", (2.0, 0.0, -3.0))
    with pytest.raises(ConfigError, match=r"^weight must be a finite real number, got nan$"):
        parse_weights("table:1,nan")


def test_config_validates_depth_and_norm():
    with pytest.raises(ConfigError):
        TmdConfig(depth=0)
    with pytest.raises(ConfigError):
        TmdConfig(depth=2.0)  # type: ignore[arg-type]
    with pytest.raises(ConfigError):
        TmdConfig(depth=True)
    with pytest.raises(ConfigError):
        TmdConfig(depth=np.int64(0))
    with pytest.raises(ConfigError):
        TmdConfig(depth=2, feature_norm="linf")


@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("weights", ["const:1.0", 1.0, None])
def test_config_refuses_weights_that_are_no_schedule(depth, weights):
    # at depth 1 no level weight is probed, so only the type check stands
    # between a spec string and a failure after the whole distance matrix
    with pytest.raises(ConfigError, match="must be a WeightFn"):
        TmdConfig(depth=depth, weights=weights)


def test_config_takes_numpy_integer_depth():
    c = TmdConfig(depth=np.int64(3))
    assert type(c.depth) is int and c == TmdConfig(depth=3)


def test_config_probes_table_coverage_up_front():
    short = WeightFn("table", (1.0,))
    TmdConfig(depth=2, weights=short)  # needs w(1) only
    with pytest.raises(ConfigError, match="1 entries but depth 3 reads 2"):
        TmdConfig(depth=3, weights=short)  # would need w(2) mid-recursion


def test_level_weight_delegates():
    c = TmdConfig(depth=3, weights=WeightFn("table", (2.0, 5.0)))
    assert c.level_weight(2) == 5.0
