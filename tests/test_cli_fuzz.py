"""Hostile-input fuzz of the CLI contract over mutated shipped configs.

Each example deletes keys of a shipped config or replaces values in it by
a value of another JSON type or by a huge, negative or NaN number, and runs
the config's scenario through `cli.main`.  The contract holds for every
input: exit 0, 1 or 2, one stderr line, and no exception or warning.
"""

import contextlib
import copy
import io
import json
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from freedim.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))}

HOSTILE = [None, True, "x", [], {}, 1.5, 0, -1, 10**400, -(10**400), 1e308,
           float("inf"), float("nan"), [[1]]]


def _paths(node, path=()):
    """Paths of every key and list entry below `node`."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(cfg, path, value, delete):
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)


def _run(scenario, path):
    """main's exit code and stderr, with warnings raised as errors."""
    err = io.StringIO()
    out = io.TextIOWrapper(io.BytesIO())
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        code = main([scenario, "--config", path])
    return code, err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_mutated_shipped_configs_keep_the_cli_contract(tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(SHIPPED)), label="config")
    cfg = json.loads(json.dumps(SHIPPED[name]))
    scenario = cfg["scenario"]
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(cfg))
        if not paths:
            break
        _mutate(cfg, data.draw(st.sampled_from(paths), label="path"),
                data.draw(st.sampled_from(HOSTILE), label="value"),
                data.draw(st.booleans(), label="delete"))
    path = tmp_path_factory.getbasetemp() / "fuzz_config.json"
    path.write_text(json.dumps(cfg))
    code, err = _run(scenario, str(path))
    assert code in (0, 1, 2)
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
