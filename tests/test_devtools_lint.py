"""Self-tests for the DCL invariant linter (:mod:`repro.devtools`).

Every rule gets positive fixtures (a violating snippet must fire) and
negative fixtures (compliant code must stay silent), suppression
comments are exercised in both file- and line-level form, and a smoke
test asserts the real ``src/`` tree is clean -- the same gate CI runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import LintReport, collect_files, lint_paths, lint_source, main
from repro.devtools.rules import RULES, all_rules

pytestmark = pytest.mark.devtools

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

CORE_PATH = "src/repro/core/fixture.py"
OTHER_PATH = "src/repro/data/fixture.py"
TEST_PATH = "tests/fixture.py"


def codes(violations):
    return [v.rule for v in violations]


# ----------------------------------------------------------------------
# DCL001 -- no global RNG state
# ----------------------------------------------------------------------
class TestGlobalRng:
    def test_legacy_numpy_call_fires(self):
        src = "import numpy as np\n__all__ = []\nx = np.random.rand(3)\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL001"]

    def test_numpy_seed_fires(self):
        src = "import numpy as np\n__all__ = []\nnp.random.seed(0)\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL001"]

    def test_bare_default_rng_fires(self):
        src = "import numpy as np\n__all__ = []\ng = np.random.default_rng()\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL001"]

    def test_seeded_default_rng_ok(self):
        src = "import numpy as np\n__all__ = []\ng = np.random.default_rng(42)\n"
        assert lint_source(src, OTHER_PATH) == []

    def test_generator_methods_ok(self):
        src = (
            "import numpy as np\n__all__ = []\n"
            "g = np.random.default_rng(1)\nx = g.uniform(0, 1, 5)\n"
        )
        assert lint_source(src, OTHER_PATH) == []

    def test_stdlib_random_fires(self):
        src = "import random\n__all__ = []\nx = random.shuffle([1, 2])\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL001"]

    def test_stdlib_from_import_fires(self):
        src = "from random import choice\n__all__ = []\nx = choice([1, 2])\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL001"]

    def test_random_class_instances_ok(self):
        src = "import random\n__all__ = []\nr = random.Random(7)\n"
        assert lint_source(src, OTHER_PATH) == []

    def test_numpy_alias_tracked(self):
        src = "import numpy\n__all__ = []\nnumpy.random.normal(0, 1)\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL001"]

    def test_tests_tree_exempt(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert lint_source(src, TEST_PATH) == []


# ----------------------------------------------------------------------
# DCL002 -- no wall-clock reads in core/
# ----------------------------------------------------------------------
class TestWallClock:
    @pytest.mark.parametrize(
        "call",
        ["time.time()", "time.perf_counter()", "time.monotonic()"],
    )
    def test_time_calls_fire_in_core(self, call):
        src = f"import time\n__all__ = []\nt = {call}\n"
        assert codes(lint_source(src, CORE_PATH)) == ["DCL002"]

    def test_datetime_now_fires_in_core(self):
        src = (
            "from datetime import datetime\n__all__ = []\n"
            "t = datetime.now()\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL002"]

    def test_from_import_perf_counter_fires(self):
        src = "from time import perf_counter\n__all__ = []\nt = perf_counter()\n"
        assert codes(lint_source(src, CORE_PATH)) == ["DCL002"]

    def test_outside_core_exempt(self):
        src = "import time\n__all__ = []\nt = time.perf_counter()\n"
        assert lint_source(src, OTHER_PATH) == []

    def test_tracer_clock_seam_ok(self):
        src = (
            "__all__ = []\n"
            "def run(tracer):\n    return tracer.clock()\n"
        )
        assert "DCL002" not in codes(lint_source(src, CORE_PATH))


# ----------------------------------------------------------------------
# DCL003 -- no NaN-aggregation in core/
# ----------------------------------------------------------------------
class TestNanAggregation:
    @pytest.mark.parametrize("fn", ["nanmean", "nansum", "nanstd"])
    def test_nan_aggregates_fire_in_core(self, fn):
        src = f"import numpy as np\n__all__ = []\nx = np.{fn}([1.0])\n"
        assert codes(lint_source(src, CORE_PATH)) == ["DCL003"]

    def test_count_aware_mean_ok(self):
        src = (
            "import numpy as np\n__all__ = ['m']\n"
            "def m(a, mask):\n"
            "    return np.where(mask, a, 0.0).sum() / mask.sum()\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_outside_core_exempt(self):
        src = "import numpy as np\n__all__ = []\nx = np.nanmean([1.0])\n"
        assert lint_source(src, OTHER_PATH) == []


# ----------------------------------------------------------------------
# DCL004 -- public core functions accept rng as a parameter
# ----------------------------------------------------------------------
class TestRngParameter:
    def test_internal_construction_fires(self):
        src = (
            "import numpy as np\n__all__ = ['sample']\n"
            "def sample(n):\n"
            "    g = np.random.default_rng(0)\n"
            "    return g.uniform(size=n)\n"
        )
        assert "DCL004" in codes(lint_source(src, CORE_PATH))

    def test_resolve_rng_without_param_fires(self):
        src = (
            "from repro.core.rng import resolve_rng\n__all__ = ['sample']\n"
            "def sample(n):\n"
            "    g = resolve_rng(None)\n"
            "    return g\n"
        )
        assert "DCL004" in codes(lint_source(src, CORE_PATH))

    def test_rng_parameter_ok(self):
        src = (
            "from repro.core.rng import resolve_rng\n__all__ = ['sample']\n"
            "def sample(n, rng=None):\n"
            "    g = resolve_rng(rng)\n"
            "    return g\n"
        )
        assert "DCL004" not in codes(lint_source(src, CORE_PATH))

    def test_private_function_exempt(self):
        src = (
            "import numpy as np\n__all__ = []\n"
            "def _helper():\n"
            "    return np.random.default_rng(3)\n"
        )
        assert "DCL004" not in codes(lint_source(src, CORE_PATH))

    def test_outside_core_exempt(self):
        src = (
            "import numpy as np\n__all__ = ['sample']\n"
            "def sample(n):\n"
            "    return np.random.default_rng(0).uniform(size=n)\n"
        )
        assert "DCL004" not in codes(lint_source(src, OTHER_PATH))


# ----------------------------------------------------------------------
# DCL005 -- __all__ hygiene
# ----------------------------------------------------------------------
class TestDunderAll:
    def test_missing_dunder_all_fires(self):
        src = "def public():\n    return 1\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL005"]

    def test_unknown_name_fires(self):
        src = "__all__ = ['ghost']\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL005"]

    def test_unlisted_public_def_fires(self):
        src = "__all__ = ['a']\ndef a():\n    pass\ndef b():\n    pass\n"
        violations = lint_source(src, OTHER_PATH)
        assert codes(violations) == ["DCL005"]
        assert "'b'" in violations[0].message

    def test_duplicate_entry_fires(self):
        src = "__all__ = ['a', 'a']\ndef a():\n    pass\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL005"]

    def test_clean_module_ok(self):
        src = (
            "__all__ = ['CONST', 'a']\nCONST = 3\n"
            "def a():\n    pass\ndef _hidden():\n    pass\n"
        )
        assert lint_source(src, OTHER_PATH) == []

    def test_imports_count_as_bound(self):
        src = "from os.path import join\n__all__ = ['join']\n"
        assert lint_source(src, OTHER_PATH) == []

    def test_module_getattr_allows_lazy_names(self):
        src = (
            "__all__ = ['lazy']\n"
            "def __getattr__(name):\n    raise AttributeError(name)\n"
        )
        assert lint_source(src, OTHER_PATH) == []

    def test_dunder_main_exempt(self):
        src = "def run():\n    pass\n"
        assert lint_source(src, "src/repro/__main__.py") == []


# ----------------------------------------------------------------------
# DCL006 -- no writes to module-level mutable state in core/
# ----------------------------------------------------------------------
class TestMutableGlobalWrite:
    def test_global_rebinding_fires(self):
        src = (
            "__all__ = []\n_BEST = None\n"
            "def _remember(x):\n    global _BEST\n    _BEST = x\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]

    def test_item_write_fires(self):
        src = (
            "__all__ = []\nCACHE = {}\n"
            "def _put(k, v):\n    CACHE[k] = v\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]

    def test_item_delete_fires(self):
        src = (
            "__all__ = []\nCACHE = dict()\n"
            "def _drop(k):\n    del CACHE[k]\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]

    def test_mutator_method_fires(self):
        src = (
            "__all__ = []\nREGISTRY = []\n"
            "def _register(x):\n    REGISTRY.append(x)\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]

    def test_factory_call_global_tracked(self):
        src = (
            "from collections import defaultdict\n__all__ = []\n"
            "HITS = defaultdict(int)\n"
            "def _hit(k):\n    HITS.update({k: 1})\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]

    def test_environ_write_fires(self):
        src = (
            "import os\n__all__ = []\n"
            "def _taint():\n    os.environ['SEED'] = '1'\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]

    def test_environ_update_fires(self):
        src = (
            "import os\n__all__ = []\n"
            "def _taint():\n    os.environ.update(SEED='1')\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]

    def test_putenv_fires(self):
        src = "import os\n__all__ = []\ndef _taint():\n    os.putenv('A', 'b')\n"
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]

    def test_local_shadow_ok(self):
        src = (
            "__all__ = []\nCACHE = {}\n"
            "def _work():\n    CACHE = {}\n    CACHE['k'] = 1\n    return CACHE\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_parameter_shadow_ok(self):
        src = (
            "__all__ = []\nREGISTRY = []\n"
            "def _register(REGISTRY, x):\n    REGISTRY.append(x)\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_reading_global_ok(self):
        src = (
            "__all__ = []\nLIMITS = {'rows': 3}\n"
            "def _floor():\n    return LIMITS['rows']\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_immutable_global_rebind_not_mutation(self):
        src = (
            "__all__ = []\nSCALE = 2.0\n"
            "def _use():\n    x = SCALE\n    return x\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_module_level_init_ok(self):
        src = (
            "__all__ = []\nTABLE = {}\nTABLE['a'] = 1\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_outside_core_exempt(self):
        src = (
            "__all__ = []\nCACHE = {}\n"
            "def _put(k, v):\n    CACHE[k] = v\n"
        )
        assert lint_source(src, OTHER_PATH) == []

    def test_nested_function_analyzed(self):
        src = (
            "__all__ = []\nSEEN = set()\n"
            "def _outer():\n"
            "    def _inner(x):\n        SEEN.add(x)\n"
            "    return inner\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]


# ----------------------------------------------------------------------
# DCL007 -- no silent exception swallowing in core/ and runtime/
# ----------------------------------------------------------------------
RUNTIME_PATH = "src/repro/runtime/fixture.py"


class TestExceptionSwallow:
    def test_bare_except_fires(self):
        src = (
            "__all__ = []\n"
            "def _f():\n"
            "    try:\n        return 1\n"
            "    except:\n        return 0\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL007"]

    def test_bare_except_fires_in_runtime(self):
        src = (
            "__all__ = []\n"
            "def _f():\n"
            "    try:\n        return 1\n"
            "    except:\n        return 0\n"
        )
        assert codes(lint_source(src, RUNTIME_PATH)) == ["DCL007"]

    def test_broad_except_pass_fires(self):
        src = (
            "__all__ = []\n"
            "def _f():\n"
            "    try:\n        _g()\n"
            "    except Exception:\n        pass\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL007"]

    def test_base_exception_ellipsis_fires(self):
        src = (
            "__all__ = []\n"
            "def _f():\n"
            "    try:\n        _g()\n"
            "    except BaseException:\n        ...\n"
        )
        assert codes(lint_source(src, RUNTIME_PATH)) == ["DCL007"]

    def test_broad_except_continue_fires(self):
        src = (
            "__all__ = []\n"
            "def _f(items):\n"
            "    for item in items:\n"
            "        try:\n            _g(item)\n"
            "        except Exception:\n            continue\n"
        )
        assert codes(lint_source(src, RUNTIME_PATH)) == ["DCL007"]

    def test_broad_except_in_tuple_pass_fires(self):
        src = (
            "__all__ = []\n"
            "def _f():\n"
            "    try:\n        _g()\n"
            "    except (ValueError, Exception):\n        pass\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL007"]

    def test_broad_except_with_handling_ok(self):
        src = (
            "__all__ = []\n"
            "def _f(log):\n"
            "    try:\n        return _g()\n"
            "    except Exception as exc:\n"
            "        log.append(exc)\n        return None\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_broad_except_reraise_ok(self):
        src = (
            "__all__ = []\n"
            "def _f():\n"
            "    try:\n        return _g()\n"
            "    except Exception:\n        raise\n"
        )
        assert lint_source(src, RUNTIME_PATH) == []

    def test_specific_except_pass_ok(self):
        src = (
            "__all__ = []\n"
            "def _f():\n"
            "    try:\n        return _g()\n"
            "    except ValueError:\n        pass\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_outside_core_and_runtime_exempt(self):
        src = (
            "__all__ = []\n"
            "def _f():\n"
            "    try:\n        return 1\n"
            "    except:\n        return 0\n"
        )
        assert lint_source(src, OTHER_PATH) == []


# ----------------------------------------------------------------------
# DCL008 -- no wall-clock reads in obs/perf/
# ----------------------------------------------------------------------
PERF_PATH = "src/repro/obs/perf/fixture.py"


class TestPerfWallClock:
    @pytest.mark.parametrize(
        "call",
        ["time.time()", "time.perf_counter()", "time.monotonic()"],
    )
    def test_time_calls_fire_in_perf(self, call):
        src = f"import time\n__all__ = []\nt = {call}\n"
        assert codes(lint_source(src, PERF_PATH)) == ["DCL008"]

    def test_from_import_perf_counter_fires(self):
        src = "from time import perf_counter\n__all__ = []\nt = perf_counter()\n"
        assert codes(lint_source(src, PERF_PATH)) == ["DCL008"]

    def test_datetime_now_fires_in_perf(self):
        src = (
            "from datetime import datetime\n__all__ = []\n"
            "t = datetime.now()\n"
        )
        assert codes(lint_source(src, PERF_PATH)) == ["DCL008"]

    def test_clock_attribute_reference_ok(self):
        # The seam itself: referencing Tracer.clock (no call) is the
        # sanctioned way to obtain a default clock.
        src = (
            "from repro.obs.tracer import Tracer\n"
            "__all__ = ['DEFAULT_CLOCK']\n"
            "DEFAULT_CLOCK = Tracer.clock\n"
        )
        assert lint_source(src, PERF_PATH) == []

    def test_injected_clock_call_ok(self):
        src = (
            "__all__ = ['timed']\n"
            "def timed(clock):\n    return clock()\n"
        )
        assert lint_source(src, PERF_PATH) == []

    def test_outside_perf_exempt(self):
        src = "import time\n__all__ = []\nt = time.perf_counter()\n"
        assert lint_source(src, OTHER_PATH) == []


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
class TestSuppression:
    VIOLATING = "import numpy as np\n__all__ = []\nnp.random.seed(0)\n"

    def test_file_level_disable(self):
        src = "# dcl: disable=DCL001\n" + self.VIOLATING
        assert lint_source(src, OTHER_PATH) == []

    def test_line_level_disable(self):
        src = (
            "import numpy as np\n__all__ = []\n"
            "np.random.seed(0)  # dcl: disable=DCL001\n"
        )
        assert lint_source(src, OTHER_PATH) == []

    def test_line_level_only_covers_its_line(self):
        src = (
            "import numpy as np\n__all__ = []\n"
            "np.random.seed(0)  # dcl: disable=DCL001\n"
            "np.random.seed(1)\n"
        )
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL001"]

    def test_multiple_codes_and_all(self):
        src = "# dcl: disable=DCL001, DCL005\nimport numpy as np\nnp.random.seed(0)\ndef f():\n    pass\n"
        assert lint_source(src, OTHER_PATH) == []
        src_all = "# dcl: disable=all\nimport numpy as np\nnp.random.seed(0)\n"
        assert lint_source(src_all, OTHER_PATH) == []

    def test_unrelated_code_not_suppressed(self):
        src = "# dcl: disable=DCL005\n" + self.VIOLATING
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL001"]


# ----------------------------------------------------------------------
# Suppression validation (malformed / unknown / stale) and strict mode
# ----------------------------------------------------------------------
class TestSuppressionValidation:
    VIOLATING = "import numpy as np\n__all__ = []\nnp.random.seed(0)\n"

    def test_malformed_code_warns_instead_of_silently_ignoring(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import numpy as np\n__all__ = []\n"
            "np.random.seed(0)  # dcl: disable=DCL01\n"
        )
        report = lint_paths([str(mod)])
        # The malformed code does not suppress...
        assert [v.rule for v in report.violations] == ["DCL001"]
        # ...and is surfaced as a warning, not dropped on the floor.
        assert [w.kind for w in report.suppression_warnings] == [
            "malformed-code"
        ]
        assert report.suppression_warnings[0].code == "DCL01"

    def test_valid_codes_beside_malformed_still_apply(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import numpy as np\n__all__ = []\n"
            "np.random.seed(0)  # dcl: disable=DCL01,DCL001\n"
        )
        report = lint_paths([str(mod)])
        assert report.violations == []
        assert [w.code for w in report.suppression_warnings] == ["DCL01"]

    def test_unknown_rule_code_warns(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("__all__ = []\nx = 1  # dcl: disable=DCL999\n")
        report = lint_paths([str(mod)])
        assert [w.kind for w in report.suppression_warnings] == [
            "unknown-code"
        ]

    def test_stale_line_suppression_is_detected(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("__all__ = []\nx = 1  # dcl: disable=DCL001\n")
        report = lint_paths([str(mod)])
        assert [w.kind for w in report.stale_suppressions] == ["stale"]
        assert report.stale_suppressions[0].code == "DCL001"

    def test_live_suppression_is_not_stale(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import numpy as np\n__all__ = []\n"
            "np.random.seed(0)  # dcl: disable=DCL001\n"
        )
        report = lint_paths([str(mod)])
        assert report.stale_suppressions == []

    def test_file_level_suppressions_are_exempt_from_staleness(
        self, tmp_path
    ):
        # The repro.core.rng precedent: a file-level directive
        # sanctions a seam and may outlive any individual firing line.
        mod = tmp_path / "m.py"
        mod.write_text("# dcl: disable=DCL001\n__all__ = []\nx = 1\n")
        report = lint_paths([str(mod)])
        assert report.stale_suppressions == []

    def test_directives_inside_strings_are_ignored(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            '"""Docs show the syntax: # dcl: disable=DCL001 ..."""\n'
            "import numpy as np\n__all__ = []\n"
            "np.random.seed(0)\n"
        )
        report = lint_paths([str(mod)])
        # The docstring neither suppresses nor produces stale warnings.
        assert [v.rule for v in report.violations] == ["DCL001"]
        assert report.stale_suppressions == []

    def test_strict_flag_fails_on_warnings(self, tmp_path, capsys):
        mod = tmp_path / "m.py"
        mod.write_text("__all__ = []\nx = 1  # dcl: disable=DCL01\n")
        assert main([str(mod)]) == 0
        capsys.readouterr()
        assert main([str(mod), "--strict-suppressions"]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_strict_flag_fails_on_stale(self, tmp_path, capsys):
        mod = tmp_path / "m.py"
        mod.write_text("__all__ = []\nx = 1  # dcl: disable=DCL005\n")
        assert main([str(mod)]) == 0
        capsys.readouterr()
        assert main([str(mod), "--strict-suppressions"]) == 1
        assert "stale" in capsys.readouterr().err

    def test_json_carries_warning_and_count_fields(self, tmp_path, capsys):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import numpy as np\n__all__ = []\nnp.random.seed(0)\n"
        )
        main([str(mod), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule_counts"] == {"DCL001": 1}
        assert payload["suppression_warnings"] == []
        assert payload["stale_suppressions"] == []
        assert payload["deep"] is None


# ----------------------------------------------------------------------
# Engine / CLI behaviour
# ----------------------------------------------------------------------
class TestEngine:
    def test_select_filters_rules(self):
        rules = all_rules(["DCL001"])
        assert [r.code for r in rules] == ["DCL001"]
        src = "import numpy as np\nnp.random.seed(0)\ndef f():\n    pass\n"
        assert codes(lint_source(src, OTHER_PATH, rules)) == ["DCL001"]

    def test_select_unknown_code_raises(self):
        with pytest.raises(ValueError, match="DCL999"):
            all_rules(["DCL999"])

    def test_registry_is_complete(self):
        assert [cls.code for cls in RULES] == [
            "DCL001", "DCL002", "DCL003", "DCL004", "DCL005", "DCL006",
            "DCL007", "DCL008",
        ]

    def test_collect_files_skips_pycache(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "mod.py").write_text("__all__ = []\n")
        (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("x = 1\n")
        files = collect_files([str(tmp_path)])
        assert [f.name for f in files] == ["mod.py"]

    def test_lint_paths_reports_syntax_errors(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = lint_paths([str(bad)])
        assert isinstance(report, LintReport)
        assert not report.clean
        assert report.parse_errors and "syntax error" in report.parse_errors[0][1]

    def test_main_json_format(self, tmp_path, capsys):
        mod = tmp_path / "repro" / "core" / "m.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import time\n__all__ = []\nt = time.time()\n")
        status = main([str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        assert payload["files_checked"] == 1
        assert [v["rule"] for v in payload["violations"]] == ["DCL002"]

    def test_main_missing_path_is_usage_error(self, capsys):
        assert main(["definitely/not/a/path"]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DCL001", "DCL002", "DCL003", "DCL004",
                     "DCL005", "DCL006"):
            assert code in out


# ----------------------------------------------------------------------
# The real tree is clean -- the CI gate
# ----------------------------------------------------------------------
class TestRealTree:
    def test_src_tree_is_clean(self):
        report = lint_paths([str(SRC)])
        assert report.files_checked > 40
        assert report.violations == []
        assert report.parse_errors == []

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", str(SRC)],
            capture_output=True, text=True,
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_cli_subcommand(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["lint", str(SRC)]) == 0
