"""The verifiers of ``escortropy.axioms`` load on first use. Each check runs in
a new interpreter, so the modules this test session has already imported
cannot hide an import."""

import json
import os
import subprocess
import sys
from pathlib import Path

import escortropy

SRC = str(Path(escortropy.__file__).resolve().parents[1])
# The names of escortropy.axioms that the package exports.
AXIOMS_NAMES = [
    "AxiomVerdict",
    "check_additivity_dependent",
    "check_additivity_independent",
    "check_continuity",
    "check_expansibility",
    "check_maximality",
    "project_to_simplex",
    "sample_dependent_joint",
]
# Prints the subset of ("escortropy.axioms", "logging") loaded so far.
LOADED = 'print(json.dumps([m for m in ("escortropy.axioms", "logging") if m in sys.modules]))'


def fresh(script, *argv):
    """The stdout lines of script, run with argv in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + script, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    return done.stdout.splitlines()


def test_only_verify_loads_the_verifiers(tmp_path):
    joint, dist = tmp_path / "r.json", tmp_path / "p.json"
    joint.write_text('{"r": [[0.2, 0.1], [0.3, 0.4]]}', encoding="utf-8")
    dist.write_text('{"p": [0.5, 0.3, 0.2]}', encoding="utf-8")
    script = "\n".join([
        "import contextlib, io",
        "import escortropy, escortropy.cli",
        "from escortropy.cli import main",
        LOADED,
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [",
        '        main(["chain", "--input", sys.argv[1], "--q", "0.5,1,2", "--json"]),',
        '        main(["sweep", "--nb", "4", "--na", "3", "--q", "0.5,1,2", "--trials", "10"]),',
        '        main(["entropy", "--input", sys.argv[2], "--q", "0.5,1,2"]),',
        "    ]",
        "print(codes)",
        LOADED,
        "with contextlib.redirect_stdout(io.StringIO()):",
        '    main(["verify", "--suite", "qcalc", "--trials", "1"])',
        LOADED,
    ])
    assert fresh(script, str(joint), str(dist)) == [
        "[]", "[0, 0, 0]", "[]", '["escortropy.axioms", "logging"]'
    ]


def test_each_lazy_name_is_the_axioms_object():
    script = "\n".join([
        "import escortropy",
        LOADED,
        "names = sys.argv[1:]",
        "first = [getattr(escortropy, name) for name in names]",
        "print(all(a is getattr(escortropy.axioms, n) for a, n in zip(first, names)))",
        "print(all(getattr(escortropy, name) is a for a, name in zip(first, names)))",
        "star = {}",
        'exec("from escortropy import *", star)',
        "print(sorted(star.keys() - {'__builtins__'}) == sorted(escortropy.__all__))",
    ])
    assert fresh(script, *AXIOMS_NAMES) == ["[]", "True", "True", "True"]


def test_axioms_is_reachable_after_a_bare_package_import():
    script = "\n".join([
        "import escortropy",
        "print(escortropy.axioms.run_suite.__module__)",
        "print(escortropy.axioms.SUITES is escortropy.SUITES)",
        'print(hasattr(escortropy, "nope"))',
    ])
    assert fresh(script) == ["escortropy.axioms", "True", "False"]


def test_dir_lists_every_exported_name_without_loading_them():
    script = "\n".join([
        "import escortropy",
        "listed = dir(escortropy)",
        LOADED,
        'print(set(escortropy.__all__) <= set(listed), "axioms" in listed, len(listed) == len(set(listed)))',
        "escortropy.check_maximality",
        "print(dir(escortropy) == listed)",
    ])
    assert fresh(script) == ["[]", "True True True", "True"]
