"""Differential fuzzing of the reference walk's LSTM projection memo.

Seeded random — but legal — bf16 float graphs built from the float-region
op vocabulary (embedding gathers, ``lstm_step`` chains that share one
sequence projection, per-timestep ``lstm_cell`` chains, slice/concat/
reshape plumbing, fc/softmax tails).  The memoized walk — both
``execute_quantized`` and the executor's segment walk — must match a
node-by-node loop of ``execute_node`` plus ``round_float_outputs``, which
projects the sequence afresh for every ``lstm_step``, byte-for-byte.
"""

import numpy as np
import pytest

from repro.compiler import compile_graph
from repro.graph.gir import Graph, Node
from repro.graph.reference import execute_node
from repro.models.common import GraphBuilder
from repro.quantize import convert_to_bf16
from repro.runtime import NcoreExecutor, execute_quantized
from repro.runtime.qkernels import round_float_outputs

GRAPHS = 25


def _embed(b: GraphBuilder, ids: str, vocab: int, width: int, rng) -> str:
    batch, seq = b.shape(ids)
    table = b.constant(
        "table", (rng.normal(size=(vocab, width)) * 0.5).astype(np.float32)
    )
    out = b._act(b._name("embedded"), (batch, seq, width))
    b.g.add_node(Node(b._name("embedding"), "embedding", [table, ids], [out]))
    return out


def _slice_t(b: GraphBuilder, seq_tensor: str, t: int) -> str:
    batch, _, width = b.shape(seq_tensor)
    out = b._act(b._name("step"), (batch, width))
    b.g.add_node(Node(
        b._name("slice"), "slice", [seq_tensor], [out],
        {"axis": 1, "begin": t, "size": 1, "squeeze": True},
    ))
    return out


def _zeros(b: GraphBuilder, hidden: int) -> str:
    return b.constant("zero", np.zeros((1, hidden), dtype=np.float32))


def _lstm_seq_layer(b: GraphBuilder, x_seq: str, hidden: int, rng) -> list[str]:
    """One encoder-style layer: a full chain of lstm_step nodes."""
    batch, seq, width = b.shape(x_seq)
    wx = b.constant("wx", (rng.normal(size=(width, 4 * hidden)) * 0.2).astype(np.float32))
    wh = b.constant("wh", (rng.normal(size=(hidden, 4 * hidden)) * 0.2).astype(np.float32))
    bias = b.constant("bias", (rng.normal(size=4 * hidden) * 0.1).astype(np.float32))
    h, c = _zeros(b, hidden), _zeros(b, hidden)
    outs = []
    for t in range(seq):
        nh = b._act(b._name("h"), (batch, hidden))
        nc = b._act(b._name("c"), (batch, hidden))
        b.g.add_node(Node(
            b._name("lstm"), "lstm_step",
            [x_seq, wx, wh, bias, h, c], [nh, nc], {"t": t},
        ))
        h, c = nh, nc
        outs.append(h)
    return outs


def _lstm_cell_layer(b: GraphBuilder, x_seq: str, hidden: int, rng) -> list[str]:
    """One decoder-style layer: slice each step, shared stacked weights."""
    batch, seq, width = b.shape(x_seq)
    weights = b.constant(
        "w", (rng.normal(size=(width + hidden, 4 * hidden)) * 0.2).astype(np.float32)
    )
    bias = b.constant("bias", (rng.normal(size=4 * hidden) * 0.1).astype(np.float32))
    h, c = _zeros(b, hidden), _zeros(b, hidden)
    # Slices first, then the cells back-to-back threading h/c.
    xs = [_slice_t(b, x_seq, t) for t in range(seq)]
    outs = []
    for x in xs:
        nh = b._act(b._name("h"), (batch, hidden))
        nc = b._act(b._name("c"), (batch, hidden))
        b.g.add_node(Node(
            b._name("lstm"), "lstm_cell",
            [x, weights, bias, h, c], [nh, nc],
        ))
        h, c = nh, nc
        outs.append(h)
    return outs


def _stack(b: GraphBuilder, parts: list[str]) -> str:
    batch, hidden = b.shape(parts[0])
    rows = [b.reshape(p, (batch, 1, hidden)) for p in parts]
    return b.concat(rows, axis=1)


def random_float_graph(seed: int) -> Graph:
    """One random bf16-region RNN-shaped graph."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder(f"floatfuzz{seed}", seed=seed)
    seq = int(rng.integers(3, 7))
    width = int(rng.integers(4, 13))
    vocab = int(rng.integers(16, 49))
    ids = b.input("ids", (1, seq), dtype="int32")
    x_seq = _embed(b, ids, vocab, width, rng)

    layers = int(rng.integers(1, 4))
    hs = None
    for _ in range(layers):
        hidden = int(rng.integers(4, 13))
        style = rng.choice(["seq", "cell"])
        if style == "seq":
            hs = _lstm_seq_layer(b, x_seq, hidden, rng)
        else:
            hs = _lstm_cell_layer(b, x_seq, hidden, rng)
        x_seq = _stack(b, hs)

    outputs = [x_seq]
    last = hs[-1]
    if rng.random() < 0.6:
        last = b.fully_connected(
            last, int(rng.integers(3, 9)),
            activation=str(rng.choice(["none", "tanh", "sigmoid"])),
        )
    if rng.random() < 0.5:
        last = b.softmax(last)
    outputs.append(last)
    if rng.random() < 0.4:
        _, seq_now, hidden_now = b.shape(x_seq)
        outputs.append(b.reshape(x_seq, (1, seq_now * hidden_now)))
    return b.finish(outputs)


def _feeds(graph: Graph, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed + 5000)
    shape = graph.tensor("ids").shape
    return {"ids": rng.integers(0, 16, size=shape).astype(np.int32)}


def node_by_node(graph: Graph, feeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The unmemoized walk: every lstm_step projects its own sequence."""
    values = {name: t.data for name, t in graph.tensors.items() if t.is_constant}
    values.update({name: np.asarray(feeds[name]) for name in graph.inputs})
    for node in graph.nodes:
        outs = execute_node(graph, node, [values[name] for name in node.inputs])
        values.update(
            zip(node.outputs, round_float_outputs(graph, node, outs), strict=True)
        )
    return {name: values[name] for name in graph.outputs}


def _assert_identical(got, want, seed):
    assert sorted(got) == sorted(want)
    for name, value in want.items():
        expected, out = np.asarray(value), np.asarray(got[name])
        assert out.dtype == expected.dtype, (seed, name)
        assert out.tobytes() == expected.tobytes(), (seed, name)


@pytest.mark.parametrize("seed", range(GRAPHS))
def test_memoized_walk_matches_node_by_node(seed):
    graph = convert_to_bf16(random_float_graph(seed))
    result = compile_graph(graph, cache=None, pipeline="O2")
    model_graph = result.model.graph
    executor = NcoreExecutor(result.model, verify=False, policy="codegen")
    try:
        # Two queries with different feeds: a memo that outlived its walk
        # would serve the second one the first one's projection.
        for query in range(2):
            feeds = _feeds(graph, seed + 100 * query)
            want = node_by_node(model_graph, feeds)
            _assert_identical(execute_quantized(model_graph, feeds), want, seed)
            _assert_identical(executor.execute(feeds).outputs, want, seed)
        assert executor.last_tier == "reference"
    finally:
        executor.close()


def test_fuzz_population_exercises_both_lstm_forms():
    """The corpus is not vacuous: both LSTM forms appear, and lstm_step
    chains share projections (fewer distinct (x_seq, wx) pairs than
    steps), which is what the memo serves."""
    steps = cells = pairs = 0
    for seed in range(GRAPHS):
        graph = convert_to_bf16(random_float_graph(seed))
        seq_nodes = [n for n in graph.nodes if n.op == "lstm_step"]
        steps += len(seq_nodes)
        cells += sum(1 for n in graph.nodes if n.op == "lstm_cell")
        pairs += len({tuple(n.inputs[:2]) for n in seq_nodes})
    assert cells > 0, "no lstm_cell chains in the corpus"
    assert 0 < pairs < steps, "no shared lstm_step projections in the corpus"
