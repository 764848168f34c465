"""Checks on the package source itself (no linter is installed)."""

import argparse
import ast
from pathlib import Path

from ddkseg import cli
from ddkseg.train import TrainConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "ddkseg"


def test_no_unused_imports():
    unused = []
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no sources under {SRC}"
    for path in paths:
        if path.name == "__init__.py":  # re-exports
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(SRC)}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_no_environment_reads():
    # Tuning constants stay constants: no setting may come in through the
    # environment behind the CLI's back.
    names = ("environ", "environb", "getenv", "getenvb")
    reads = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                reads.append(f"{path.relative_to(SRC)}:{node.lineno}: os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.relative_to(SRC)}:{node.lineno}: from os import {alias.name}"
                          for alias in node.names if alias.name in names]
    assert not reads, "environment reads:\n" + "\n".join(reads)


def test_every_config_field_is_read():
    # A field that only its own class reads configures nothing: delete it
    # (or turn it into a constant) rather than keep a setting without effect.
    # Reads are matched by attribute name, whatever object they are made on.
    classes = {"ModelConfig": "models.py", "TrainConfig": "train.py"}
    fields, inside = {}, {}
    for name, module in classes.items():
        tree = ast.parse((SRC / module).read_text())
        cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name)
        fields[name] = {n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)}
        inside[name] = (module, cls.lineno, cls.end_lineno)
    assert all(fields.values()), fields
    read = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read |= {(cls, node.attr) for cls, (module, lo, hi) in inside.items()
                         if not (rel == module and lo <= node.lineno <= hi)}
    unread = sorted(f"{cls}.{f}" for cls, names in fields.items() for f in names if (cls, f) not in read)
    assert not unread, "config fields read nowhere outside their class: " + ", ".join(unread)


def test_no_process_or_executor_pools():
    # Work done in a child process hides its memory from a RUSAGE_SELF peak
    # (the benchmark's peak_rss_mb), and concurrent.futures costs import time
    # that plain threading.Thread does not.
    banned = ("concurrent.futures", "multiprocessing")
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.relative_to(SRC)}:{node.lineno}: {m}" for m in modules
                      if any(m == b or m.startswith(b + ".") for b in banned)]
    assert not found, "banned imports:\n" + "\n".join(found)


def test_threads_start_in_one_place():
    # Every helper thread, and the queue that feeds it jobs, comes from one
    # function, which joins the threads and re-raises their errors: a
    # second copy of that logic would drift.
    makers = {("threading", "Thread"): set(), ("queue", "Queue"): set()}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        direct = {alias.asname or alias.name: (node.module, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names if (node.module, alias.name) in makers}

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                where = f"{path.relative_to(SRC)}:{getattr(node, 'name', '<lambda>')}"
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                    made = (func.value.id, func.attr)
                elif isinstance(func, ast.Name):
                    made = direct.get(func.id)
                else:
                    made = None
                if made in makers:
                    makers[made].add(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, f"{path.relative_to(SRC)}:<module>")
    for (module, name), where in makers.items():
        assert len(where) == 1, f"{module}.{name}( is called in {sorted(where)}"


def test_ctypes_in_one_function():
    # Native calls are kept to the one BLAS thread-count query and setter,
    # whose missing symbols fall back to no helper and no pin
    # (tests/test_lstm_pipeline.py, tests/test_helper_rule.py).
    where = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                scope = f"{path.relative_to(SRC)}:{getattr(node, 'name', '<lambda>')}"
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "ctypes":
                where.add(scope)
            elif isinstance(node, ast.Import) and any(a.name.split(".")[0] == "ctypes" and a.asname
                                                      for a in node.names):
                where.add(scope)  # an alias would hide its uses
            elif isinstance(node, ast.Name) and node.id == "ctypes":
                where.add(scope)
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, f"{path.relative_to(SRC)}:<module>")
    assert where == {"nn/threads.py:blas_threads"}, f"ctypes is used in {sorted(where)}"


def test_blas_is_asked_in_two_places():
    # Whether a helper thread pays depends on BLAS's thread count, and
    # _Helpers alone decides whether one starts: a caller that asked BLAS
    # itself would make a second rule. The one other caller is cli.main,
    # which owns the process and so alone may set the count: it pins BLAS
    # to one thread around each command and restores it after. Any call
    # named blas_threads counts, bare or as an attribute, wherever it was
    # imported from.
    where = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, scope):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = scope + (node.name,)
            if isinstance(node, ast.Call):
                func = node.func
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "blas_threads":
                    where.add(f"{path.relative_to(SRC)}:{'.'.join(scope) or '<module>'}")
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, ())
    assert where == {"nn/threads.py:_Helpers.__init__", "cli.py:main"}, f"blas_threads( is called in {sorted(where)}"


def test_each_training_setting_has_one_flag():
    # --config holds the model only, so each TrainConfig field has one
    # source: its `ddkseg train` flag. A second flag for a field, or a new
    # option beside the known ones, fails here.
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = [a.dest for a in sub.choices["train"]._actions]
    field_of = {"epochs": "max_epochs", "no_augment": "augment"}
    fields = [field_of.get(d, d) for d in dests]
    assert sorted(f for f in fields if f in TrainConfig.__dataclass_fields__) == sorted(TrainConfig.__dataclass_fields__)
    assert sorted(f for f in fields if f not in TrainConfig.__dataclass_fields__) == [
        "arch", "config", "help", "manifest", "out_dir"]


def test_no_where_selects_in_the_kernels():
    # np.where allocates its output and both branches: on a (4, 128, 1000)
    # float32 activation with a random sign mask, np.where(x < 0, x * s, x)
    # took 3.5 ms against 0.38 ms for np.maximum(x, x * s, out=x), and a
    # masked np.multiply(..., where=...) 4.7 ms. Select with exact
    # arithmetic instead (see LeakyReLU).
    found = []
    for path in sorted((SRC / "nn").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "where"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
                found.append(f"nn/{path.relative_to(SRC / 'nn')}:{node.lineno}")
    assert not found, "np.where( under src/ddkseg/nn:\n" + "\n".join(found)


def test_every_module_level_name_is_used():
    # A function or class that only its own definition and the tests name
    # is dead code: delete it with its tests. A name counts as used where
    # src/ddkseg or bench/ (outside bench's tests) reads it, imports it
    # (except a package's re-export), or spells it in a string, as
    # bench/tracing.py names the functions it wraps.
    bench = SRC.parents[1] / "bench"
    paths = sorted(SRC.rglob("*.py")) + sorted(p for p in bench.glob("*.py") if not p.name.startswith("test_"))
    defined, uses = [], []  # uses: (name, path, line)
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.is_relative_to(SRC):
            defined += [(node, path) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path, node.lineno))
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                uses += [(alias.name, path, node.lineno) for alias in node.names]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                uses += [(part, path, node.lineno) for part in node.value.split(".") if part.isidentifier()]
    unused = [f"{path.relative_to(SRC)}:{node.lineno}: {node.name}" for node, path in defined
              if not any(name == node.name and not (where == path and node.lineno <= line <= node.end_lineno)
                         for name, where, line in uses)]
    assert not unused, "module-level names used nowhere but their definition and tests:\n" + "\n".join(unused)
