"""The callables the benchmark's span tracer (perfbench/spans.py) wraps still
exist under their names, so a rename fails here and not only in a traced
benchmark run."""
import importlib
import types
from pathlib import Path

import pytest

import adawavenet.tensor as T

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """Execute the tracer's source as a module without writing bytecode."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


spans = load_spans()


def lib(name):
    return importlib.import_module(f"adawavenet.{name}")


@pytest.mark.parametrize("modname,attr", [f[:2] for f in spans.FUNCTIONS])
def test_traced_function_exists(modname, attr):
    assert callable(getattr(lib(modname), attr))


@pytest.mark.parametrize("modname,clsname,attr", [m[:3] for m in spans.METHODS])
def test_traced_method_exists(modname, clsname, attr):
    assert isinstance(vars(getattr(lib(modname), clsname)).get(attr),
                      types.FunctionType)


@pytest.mark.parametrize("op", spans.NAMED_OPS)
def test_named_op_is_a_public_tensor_function(op):
    """The tracer wraps the tensor module's public functions defined there."""
    fn = getattr(T, op)
    assert isinstance(fn, types.FunctionType) and fn.__module__ == T.__name__


def test_no_grad_is_not_traced_as_an_op():
    assert not isinstance(T.no_grad, types.FunctionType)


@pytest.mark.parametrize("kind", ["train", "eval"])
def test_every_named_op_records_its_spans(rng, kind):
    """The tracer, installed around one tiny training step or one eval
    forward, records each named op's forward span, and in training its
    backward span: an op that drops out of the model's path (the softmax or
    a matmul of the attention, say) fails here."""
    # `Tracer.install` finds each traced module in sys.modules
    for name in ("attention", "bench", "data", "decompose", "grouped", "lifting",
                 "model", "train"):
        lib(name)
    config = lib("config").ModelConfig(levels=2, d_model=8, heads=2,
                                       input_len=32, pred_len=32)
    model = lib("model").AdaWaveNet(config, 3)
    x, y = (T.Tensor(rng.normal(size=(2, 3, 32))) for _ in range(2))
    tracer = spans.Tracer(kind, {kind})
    tracer.install()
    try:
        if kind == "train":
            T.mse(model.forward(x), y).backward()
        else:
            with T.no_grad():
                model.forward(x)
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    want = {f"tensor.{op}.fwd" for op in spans.NAMED_OPS}
    if kind == "train":
        want |= {f"tensor.{op}.bwd" for op in spans.NAMED_OPS}
    assert want - recorded == set()
