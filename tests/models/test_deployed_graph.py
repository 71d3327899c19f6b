"""Every zoo entry point compiles ``ModelInfo.deployed_graph``: only it
converts graphs in ``src/``, and it equals the explicit public chain
(build -> optimize_graph -> calibrate + quantize_graph, or convert_to_bf16).
"""

import re
from pathlib import Path

import pytest

from repro.compiler import optimize_graph
from repro.compiler.fingerprint import fingerprint_graph
from repro.models import PAPER_CHARACTERISTICS
from repro.quantize import calibrate, convert_to_bf16, quantize_graph

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_only_the_zoo_recipe_converts_graphs():
    call = re.compile(r"\b(convert_to_bf16|calibrate|quantize_graph)\(")
    offenders = [
        f"{path}:{lineno}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        if SRC / "quantize" not in path.parents and path != SRC / "models" / "zoo.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if call.search(line)
    ]
    assert not offenders, "conversion outside ModelInfo.convert:\n" + "\n".join(offenders)


@pytest.mark.parametrize(("key", "seed", "build_kwargs"), [
    ("mobilenet_v1", 3, {}),
    ("gnmt", 0, {"seq_len": 5, "hidden": 16, "layers": 2, "vocab": 50}),
])
def test_deployed_graph_matches_the_public_chain(key, seed, build_kwargs):
    info = PAPER_CHARACTERISTICS[key]
    graph = optimize_graph(info.build(**build_kwargs), in_place=True)
    if key == "gnmt":
        expected = convert_to_bf16(graph)
    else:
        batches = [info.sample_input(graph, seed=seed)]
        expected = quantize_graph(graph, calibrate(graph, batches))
    deployed = info.deployed_graph(seed=seed, **build_kwargs)
    assert fingerprint_graph(deployed) == fingerprint_graph(expected)
