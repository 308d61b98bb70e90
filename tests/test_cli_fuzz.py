"""Hostile-input fuzz of the CLI contract over mutated shipped configs.

Each example makes one to three mutations of a shipped config and runs the
config's scenario through `cli.main`.  A mutation deletes a key or list
entry, or writes a hostile value (a value of another JSON type, a huge,
negative or NaN number, a list with a wrong entry, or a matrix that
`_parse_matrix` refuses) at a path of the config or at a key the scenario
reads, whether or not the config holds it.  The contract holds for every
input: exit 0, 1 or 2, one stderr line, no exception or warning, and no
config error after numerical work has started.  A second fuzz inserts group
keys into the group sections of group configs, product factors included; a
key the section's kind does not read exits 2.  A third breaks the declared
structure of algebra configs (block count, weights, generator size, label
count), which exits 2.  A fourth writes
cycle-notation strings into `parameters.images` on S3: each parses, or
exits 2 naming the image.
"""

import contextlib
import copy
import io
import json
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from conftest import late_config_errors
from freedim.cli import _ALGEBRA_KEYS, _DUAL_KEYS, SCENARIOS, main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))}

HOSTILE = [None, True, "x", [], {}, 1.5, 0, -1, 10**400, -(10**400), 1e308,
           float("inf"), float("nan"), [[1]],
           # lists with a wrong entry, and matrices that _parse_matrix refuses
           [None], [True], ["1"], [1.5], [-1], [[[float("nan"), 0]]], [[[1e308, 0]]],
           [[[10**400, 0]]], [[[1, 0]], [[0, 1]]]]


def read_paths(scenario: str) -> list:
    """Paths of the keys a scenario reads in its algebra section and its
    parameters, and of the keys of a dual."""
    entry = SCENARIOS[scenario]
    algebra = sorted(_ALGEBRA_KEYS) if "algebra" in entry.needs else []
    dual = sorted(set().union({"type"}, *_DUAL_KEYS.values())) if "dual" in entry.keys else []
    return ([("algebra", k) for k in algebra] + [("parameters", k) for k in sorted(entry.keys)]
            + [("parameters", "dual", k) for k in dual])


def _paths(node, path=()):
    """Paths of every key and list entry below `node`."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _delete(cfg, path):
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]


def _write(cfg, path, value):
    """Write `value` at `path`, making missing objects on the way; nothing
    when a node on the way is neither an object nor a list indexed by it."""
    parent = cfg
    for depth, key in enumerate(path, 1):
        if not (isinstance(parent, dict) or isinstance(parent, list) and isinstance(key, int)):
            return
        if depth == len(path):
            parent[key] = copy.deepcopy(value)
        else:
            parent = parent.setdefault(key, {}) if isinstance(parent, dict) else parent[key]


def _run(scenario, path):
    """main's exit code and stderr, with warnings raised as errors, and no
    config error after numerical work."""
    err = io.StringIO()
    out = io.TextIOWrapper(io.BytesIO())
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(out), late_config_errors() as late:
        warnings.simplefilter("error")
        code = main([scenario, "--config", path])
    assert late == []
    return code, err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_mutated_shipped_configs_keep_the_cli_contract(tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(SHIPPED)), label="config")
    cfg = json.loads(json.dumps(SHIPPED[name]))
    scenario = cfg["scenario"]
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(cfg))
        if paths and data.draw(st.booleans(), label="delete"):
            _delete(cfg, data.draw(st.sampled_from(paths), label="deleted"))
        else:
            _write(cfg, data.draw(st.sampled_from(paths + read_paths(scenario)), label="path"),
                   data.draw(st.sampled_from(HOSTILE), label="value"))
    path = tmp_path_factory.getbasetemp() / "fuzz_config.json"
    path.write_text(json.dumps(cfg))
    code, err = _run(scenario, str(path))
    assert code in (0, 1, 2)
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err


def _sized_zero(section):
    """A zero matrix one row and column larger than the declared blocks."""
    N = sum(section["blocks"]) + 1
    return [[[0, 0]] * N] * N


# algebra sections of the right JSON types whose declared structure
# algebra._validated refuses: each exits 2 before any numerical work
STRUCTURE_FAULTS = {
    "no_blocks": lambda a: a.update(blocks=[]),
    "weights_too_many": lambda a: a["weights"].append(0.5),
    "nan_weight": lambda a: a["weights"].__setitem__(0, float("nan")),
    "zero_weight": lambda a: a["weights"].__setitem__(0, 0),
    "weights_doubled": lambda a: a.update(weights=[2 * w for w in a["weights"]]),
    "generator_size": lambda a: a["generators"].__setitem__(0, _sized_zero(a)),
    "label_count": lambda a: a.update(labels=["X"] * (len(a["generators"]) + 1)),
}
ALGEBRA_CONFIGS = sorted(name for name, cfg in SHIPPED.items() if "algebra" in cfg)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_algebra_structure_faults_exit_2(tmp_path_factory, data):
    cfg = json.loads(json.dumps(SHIPPED[data.draw(st.sampled_from(ALGEBRA_CONFIGS),
                                                  label="config")]))
    faults = data.draw(st.lists(st.sampled_from(sorted(STRUCTURE_FAULTS)), min_size=1,
                                max_size=2, unique=True), label="faults")
    for fault in faults:
        STRUCTURE_FAULTS[fault](cfg["algebra"])
    path = tmp_path_factory.getbasetemp() / "fuzz_structure_config.json"
    path.write_text(json.dumps(cfg))
    code, err = _run(cfg["scenario"], str(path))
    assert code == 2 and err.startswith("config error: "), err
    assert len(err.strip().splitlines()) == 1, err


GROUP_CONFIGS = [
    SHIPPED["group_finite_s3"],
    SHIPPED["group_free_kernel"],
    {"scenario": "group_finite",
     "group": {"kind": "product", "factors": [{"kind": "cyclic", "n": 2},
                                              {"kind": "symmetric", "n": 3}]}},
    {"scenario": "group_finite", "group": {"kind": "table", "mult": [[0, 1], [1, 0]]}},
]
GROUP_READS = {"cyclic": {"n"}, "symmetric": {"n"}, "product": {"factors"},
               "table": {"mult"}}


def _group_nodes(group, path=("group",)):
    """Paths of the group section and of the product factors below it."""
    yield path
    if group.get("kind") == "product":
        for i, factor in enumerate(group["factors"]):
            yield from _group_nodes(factor, path + ("factors", i))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_foreign_group_keys_keep_the_cli_contract(tmp_path_factory, data):
    cfg = json.loads(json.dumps(data.draw(st.sampled_from(GROUP_CONFIGS),
                                          label="config")))
    path = data.draw(st.sampled_from(list(_group_nodes(cfg["group"]))), label="node")
    node = cfg
    for key in path:
        node = node[key]
    key = data.draw(st.sampled_from(["n", "factors", "mult", "generating_set"]),
                    label="key")
    node[key] = copy.deepcopy(data.draw(
        st.sampled_from(HOSTILE + [[0], [[9]], "junk"]), label="value"))
    config_path = tmp_path_factory.getbasetemp() / "fuzz_group_config.json"
    config_path.write_text(json.dumps(cfg))
    code, err = _run(cfg["scenario"], str(config_path))
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    in_factor = len(path) > 1
    if key not in GROUP_READS[node["kind"]] and (in_factor or key != "generating_set"):
        assert code == 2 and "are not read" in err, err
    else:
        assert code in (0, 1, 2)


# malformed cycle notation; the fuzz also draws strings over their alphabet
BAD_CYCLES = ["(1 2", "x", "(1 9)", "(1 1)", "(1 2))"]


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_cycle_images_parse_or_exit_2(tmp_path_factory, data):
    image = data.draw(st.sampled_from(BAD_CYCLES) | st.text("()1239 ,x", max_size=12),
                      label="image")
    k = data.draw(st.integers(0, 1), label="slot")
    images = ["(1 2)", "(1 2)"]
    images[k] = image
    cfg = {"scenario": "group_free", "group": {"kind": "symmetric", "n": 3},
           "parameters": {"rank": 2, "images": images}}
    config_path = tmp_path_factory.getbasetemp() / "fuzz_cycle_config.json"
    config_path.write_text(json.dumps(cfg))
    code, err = _run("group_free", str(config_path))
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    if image in BAD_CYCLES:
        assert code == 2, err
        assert err.startswith(f"config error: parameters.images[{k}]: "), err
    else:
        assert code in (0, 2), err
