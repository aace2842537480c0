"""README's order table, ``| entry point | order | why |``, is the one
statement of the order each entry point runs its pipeline at: every name in
its first column declares the order of its row.  README's count of the jet
products of one order-3 point on ``sphere:8`` is the count the pipeline forms.
README's python examples run, and print what their comments state."""

import ast
import re
from pathlib import Path

import numpy as np

import sigmaflow
from sigmaflow import cli, models, sigma, soliton
from sigmaflow.curvature import curvature_taylor

README = Path(__file__).resolve().parents[1] / "README.md"
X = [0.1, 0.2, 0.3, 0.4]

# each name the table may hold, run once on sphere:4
ENTRY_POINTS = {
    "curvature_at": lambda m: sigmaflow.curvature_at(m.chart, X),
    "curvature": lambda m: cli.main(["curvature", "--builtin", "sphere:4"]),
    "verify": lambda m: cli.main(["verify", "--builtin", "sphere:4", "--probes", "3"]),
    "conformal_schouten": lambda m: sigma.conformal_schouten(m.chart, X, "1 + x1^2/6"),
    "conformal_ricci": lambda m: sigma.conformal_ricci(m.chart, X, "1 + x1^2/6"),
    "check_golden": lambda m: models.check_golden(m, [X]),
    "warped_ricci_formula": lambda m: models.warped_ricci_formula(
        "sinh(x1)", models.sphere(3), [1.1, 0.1, -0.15, 0.2]),
    "divergence_newton": lambda m: sigma.divergence_newton(m.chart, X, 1),
    "lemma_structural_check": lambda m: soliton.lemma_structural_check(m, count=2),
    "obata_check": lambda m: soliton.obata_check(m, count=2),
}
DEFAULT = "curvature_taylor(chart, x)"  # the library default: no order passed


def order_table() -> list:
    """(names, order) of each row of README's order table."""
    lines = README.read_text().splitlines()
    start = lines.index("| entry point | order | why |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        entry, order, _why = line.strip("|").split("|")
        rows.append((re.findall(r"`([^`]+)`", entry), int(order)))
    return rows


def test_readme_order_table_holds(pipeline_orders):
    model = models.sphere(4)
    rows = order_table()
    named = [name for names, _ in rows for name in names]
    assert sorted(named) == sorted([*ENTRY_POINTS, DEFAULT])
    for names, order in rows:
        for name in names:
            if name == DEFAULT:  # the package's own binding, which the fixture does not patch
                assert sigmaflow.curvature_taylor(model.chart, X).order == order
                continue
            _, orders = pipeline_orders.declared(lambda: ENTRY_POINTS[name](model))
            assert orders == {order}, (name, orders)


def test_readme_order_3_product_count_holds(count_products):
    text = " ".join(README.read_text().split())
    found = re.findall(r"One point on `sphere:8` at order 3 forms ([\d,]+) jet products", text)
    assert len(found) == 1, found
    chart = models.sphere(8).chart
    point = 0.1 * np.arange(1, 9) / 8
    assert count_products(lambda: curvature_taylor(chart, point, order=3)) == \
        [int(found[0].replace(",", ""))]


def test_readme_python_examples_print_what_their_comments_state():
    """README's python blocks run in order in one namespace.  Each
    ``print(x)  # <number>`` states x exactly, and each ``print(x)  # about
    <number>`` states x within a factor of 2 either way."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    namespace, stated = {}, []
    for block in blocks:
        lines = block.splitlines()
        for node in ast.parse(block).body:
            comment = re.search(r"#\s*(about )?(\d[\d.e+-]*)", lines[node.lineno - 1])
            if (comment and isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "id", None) == "print"):
                value = eval(compile(ast.Expression(node.value.args[0]), "README", "eval"),
                             namespace)
                stated.append((value, comment.group(1), float(comment.group(2))))
            else:
                exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert len(blocks) == 3 and len(stated) == 3, (len(blocks), stated)
    for value, about, want in stated:
        assert (0.5 <= value / want <= 2.0) if about else value == want, (value, want)
