"""Every function, class and public method in src/ptqkit is used by src/ptqkit.

Code that only tests, demos or the benchmark call belongs with them; the
few exceptions are listed with their reason.
"""

import ast
import pathlib

import ptqkit

# name -> why it stays in src/ptqkit although nothing there refers to it
ALLOWED = {
    "artifact_hashes": "bench/run.py and acceptance criterion 9 compare runs by it",
    "load_quantized_checkpoint": "the loader of model_quantized.json, which quantize writes",
    "PromptSet.from_texts": "demos/prompt_coverage.py builds its seed set with it",
}


def _package_sources() -> dict:
    package = pathlib.Path(ptqkit.__file__).parent
    return {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}


def unreferenced(sources: dict) -> list:
    """Top-level functions and classes, and public methods of top-level classes, in
    ``sources`` (module name -> text) whose name appears nowhere outside their own body."""
    trees = [ast.parse(text) for text in sources.values()]
    defs = []  # (qualified name, bare name, node)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m.name, m) for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    uses = {}  # bare name -> the Name and Attribute nodes that spell it
    for tree in trees:
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                uses.setdefault(name, []).append(node)
    found = []
    for qual, name, node in defs:
        inside = {id(n) for n in ast.walk(node)}
        if all(id(n) in inside for n in uses.get(name, [])):
            found.append(qual)
    return sorted(found)


def test_every_definition_is_used_in_the_package():
    assert unreferenced(_package_sources()) == sorted(ALLOWED)


def test_guard_flags_planted_unused_code():
    sources = _package_sources()
    sources["quantizer"] += ("\n\ndef planted_unused(x):\n    return planted_unused(x - 1) if x else 0\n"
                             "\n\nclass Planted:\n    def unused(self):\n        return self.unused()\n"
                             "\n\nPlanted()\n")
    assert unreferenced(sources) == sorted([*ALLOWED, "Planted.unused", "planted_unused"])
