"""The public names: every class and function that ``tropdiv.__all__``
lists has a docstring of its own, written in its source (a dataclass's
generated signature does not count), and no name there is a submodule."""
import ast
import inspect
from types import ModuleType

import pytest

import tropdiv

PUBLIC = [getattr(tropdiv, name) for name in tropdiv.__all__]


def own_docstring(obj) -> str | None:
    """The docstring of ``obj``'s own class or def statement."""
    return ast.get_docstring(ast.parse(inspect.getsource(obj)).body[0])


@pytest.mark.parametrize("obj", [x for x in PUBLIC if inspect.isclass(x) or inspect.isfunction(x)],
                         ids=lambda x: x.__name__)
def test_public_name_has_its_own_docstring(obj):
    assert (own_docstring(obj) or "").strip()


def test_no_public_name_is_a_module():
    assert not [name for name, x in zip(tropdiv.__all__, PUBLIC) if isinstance(x, ModuleType)]
    # the benchmark imports the submodules as attributes of the package
    assert isinstance(tropdiv.reduce, ModuleType)
