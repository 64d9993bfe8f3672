"""Tests for repro.lint: the determinism-contract linter.

Each REP rule gets a good/bad snippet corpus: the bad snippet must fire
exactly where expected, the good snippet must stay silent.  Snippets
are linted under *virtual paths* so the package-scoping logic (sim
package vs orchestrator vs tests) is exercised without touching disk.
The suite ends with the self-check: the real tree lints clean at head.
"""

from __future__ import annotations

import io
import json
import textwrap
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint.rules import (
    BAD_NOQA_CODE,
    PARSE_ERROR_CODE,
    LintUsageError,
    all_rules,
    parse_code_list,
)
from repro.lint.runner import lint_paths, lint_text

REPO_ROOT = Path(__file__).resolve().parents[1]

SIM_PATH = "src/repro/core/snippet.py"
NET_PATH = "src/repro/net/snippet.py"
ORCH_PATH = "src/repro/orchestrator/snippet.py"
TEST_PATH = "tests/snippet.py"


def codes_at(text, path):
    """Lint a snippet; return the list of (code, line) pairs."""
    result = lint_text(textwrap.dedent(text), path)
    return [(f.code, f.line) for f in result.findings]


def codes(text, path):
    return [c for c, _ in codes_at(text, path)]


class TestRep001GlobalRng:
    def test_random_module_function_fires(self):
        found = codes_at(
            """\
            import random

            def jitter():
                return random.random()
            """,
            SIM_PATH,
        )
        assert found == [("REP001", 4)]

    def test_seeded_random_instance_fires(self):
        # Even a seeded instance bypasses the named-stream discipline
        # and must carry a justified noqa (as orchestrator/executor.py
        # does for its retry backoff).
        assert codes(
            "import random\nrng = random.Random(7)\n", ORCH_PATH
        ) == ["REP001"]

    def test_from_import_is_resolved(self):
        assert codes(
            "from random import randint\nx = randint(1, 6)\n", TEST_PATH
        ) == ["REP001"]

    def test_numpy_legacy_api_fires(self):
        found = codes(
            """\
            import numpy as np

            np.random.seed(3)
            x = np.random.rand(4)
            """,
            SIM_PATH,
        )
        assert found == ["REP001", "REP001"]

    def test_numpy_modern_api_is_clean(self):
        assert codes(
            """\
            import numpy as np

            rng = np.random.default_rng(7)
            seq = np.random.SeedSequence([1, 2])
            gen = np.random.Generator(np.random.PCG64(seq))
            """,
            SIM_PATH,
        ) == []

    def test_rng_module_itself_is_exempt(self):
        assert codes(
            "import random\nx = random.random()\n", "src/repro/sim/rng.py"
        ) == []

    def test_local_name_random_is_not_confused(self):
        assert codes(
            "def random():\n    return 4\n\nx = random()\n", SIM_PATH
        ) == []


class TestRep002WallClock:
    def test_absolute_time_fires_everywhere(self):
        assert codes("import time\nt = time.time()\n", TEST_PATH) == [
            "REP002"
        ]
        assert codes(
            "from datetime import datetime\nnow = datetime.now()\n",
            ORCH_PATH,
        ) == ["REP002"]

    def test_perf_counter_fires_only_in_sim_packages(self):
        snippet = "import time\nt0 = time.perf_counter()\n"
        assert codes(snippet, "src/repro/sim/engine.py") == ["REP002"]
        assert codes(snippet, NET_PATH) == ["REP002"]
        # Orchestration measuring real wall time is the legitimate use.
        assert codes(snippet, ORCH_PATH) == []
        assert codes(snippet, TEST_PATH) == []

    def test_import_datetime_module_form_is_resolved(self):
        assert codes(
            "import datetime\nnow = datetime.datetime.utcnow()\n",
            SIM_PATH,
        ) == ["REP002"]


class TestRep003UnsortedSetIteration:
    def test_for_over_set_call_fires(self):
        found = codes_at(
            """\
            def drain(items):
                out = []
                for item in set(items):
                    out.append(item)
                return out
            """,
            SIM_PATH,
        )
        assert found == [("REP003", 3)]

    def test_for_over_set_literal_and_comprehension_fire(self):
        assert codes(
            "for x in {1, 2, 3}:\n    print(x)\n", SIM_PATH
        ) == ["REP003"]
        assert codes(
            "ys = [y for y in frozenset((1, 2))]\n", SIM_PATH
        ) == ["REP003"]

    def test_set_typed_local_variable_is_tracked(self):
        found = codes(
            """\
            def route(nodes):
                pending = set(nodes)
                for node in pending:
                    yield node
            """,
            SIM_PATH,
        )
        assert found == ["REP003"]

    def test_set_union_expression_fires(self):
        assert codes(
            """\
            def mesh(forwarders, members):
                for node in set(forwarders) | set(members):
                    yield node
            """,
            SIM_PATH,
        ) == ["REP003"]

    def test_annotated_parameter_is_tracked(self):
        assert codes(
            """\
            from typing import Set

            def fanout(group: Set[int]):
                return [g + 1 for g in group]
            """,
            SIM_PATH,
        ) == ["REP003"]

    def test_list_materialization_fires(self):
        assert codes("order = list(set('abc'))\n", SIM_PATH) == ["REP003"]

    def test_sorted_wrapping_is_clean(self):
        assert codes(
            """\
            def drain(items):
                for item in sorted(set(items)):
                    yield item
            ids = tuple(sorted({3, 1, 2}))
            best = max(set((1, 2)))
            """,
            SIM_PATH,
        ) == []

    def test_membership_and_set_results_are_clean(self):
        # Membership tests and set-to-set derivations never observe
        # order, so they stay legal.
        assert codes(
            """\
            def keep(candidates, allowed):
                good = set(allowed)
                return {c for c in candidates if c in good}
            """,
            SIM_PATH,
        ) == []

    def test_outside_sim_packages_is_clean(self):
        snippet = "for x in set((1, 2)):\n    print(x)\n"
        assert codes(snippet, ORCH_PATH) == []
        assert codes(snippet, TEST_PATH) == []

    def test_dict_views_are_clean(self):
        # CPython dicts iterate in insertion order — deterministic.
        assert codes(
            "d = {'a': 1}\nfor k, v in d.items():\n    print(k, v)\n",
            SIM_PATH,
        ) == []

    def test_ordered_dict_cache_views_are_clean(self):
        # The kernel layer iterates dict views on its hot paths: the
        # channel walks its registry's .values() per frame and the
        # constraint cache's LRU stores are OrderedDicts.  View
        # iteration follows insertion order — deterministic and legal.
        assert codes(
            """\
            from collections import OrderedDict

            def offer_all(nodes, frame):
                for entry in nodes.values():
                    entry.offer(frame)

            def evict_oldest(store: OrderedDict):
                for key in store.keys():
                    return key
                return None

            def snapshot(store: OrderedDict):
                return [field for _, field in store.items()]
            """,
            NET_PATH,
        ) == []


class TestRep004FloatEquality:
    def test_float_literal_comparison_fires(self):
        assert codes("def f(x):\n    return x == 1.5\n", SIM_PATH) == [
            "REP004"
        ]
        assert codes("def f(x):\n    return x != -0.5\n", SIM_PATH) == [
            "REP004"
        ]

    def test_float_cast_comparison_fires(self):
        assert codes(
            "def f(x, y):\n    return float(x) == y\n", SIM_PATH
        ) == ["REP004"]

    def test_int_and_isclose_are_clean(self):
        assert codes(
            """\
            import math

            def f(x):
                return x == 1 and math.isclose(x, 1.5)
            """,
            SIM_PATH,
        ) == []

    def test_tests_are_out_of_scope(self):
        # Test assertions on exact fixture values are idiomatic.
        assert codes("assert 0.5 == 0.5\n", TEST_PATH) == []


class TestRep005MutableDefault:
    def test_literal_defaults_fire(self):
        found = codes(
            """\
            def f(a=[], b={}, c=None):
                return a, b, c
            """,
            TEST_PATH,
        )
        assert found == ["REP005", "REP005"]

    def test_constructor_defaults_fire(self):
        assert codes("def f(a=list(), b=dict()):\n    return a\n",
                     SIM_PATH) == ["REP005", "REP005"]

    def test_kwonly_and_lambda_defaults_fire(self):
        assert codes("def f(*, a=set()):\n    return a\n", SIM_PATH) == [
            "REP005"
        ]
        assert codes("g = lambda a=[]: a\n", SIM_PATH) == ["REP005"]

    def test_immutable_defaults_are_clean(self):
        assert codes(
            "def f(a=None, b=(), c=1.5, d='x', e=frozenset()):\n"
            "    return a\n",
            SIM_PATH,
        ) == []


class TestRep006FrozenSetattr:
    def test_setattr_outside_post_init_fires(self):
        assert codes(
            """\
            class Spec:
                def tweak(self, value):
                    object.__setattr__(self, 'field', value)
            """,
            SIM_PATH,
        ) == ["REP006"]

    def test_setattr_inside_post_init_is_clean(self):
        assert codes(
            """\
            class Spec:
                def __post_init__(self):
                    object.__setattr__(self, 'field', ())
            """,
            SIM_PATH,
        ) == []


class TestRep007OverbroadExcept:
    def test_bare_and_broad_except_fire_in_hot_paths(self):
        snippet = """\
        try:
            deliver()
        except:
            pass
        try:
            deliver()
        except Exception:
            pass
        """
        assert codes(snippet, NET_PATH) == ["REP007", "REP007"]
        assert codes(snippet, "src/repro/sim/engine.py") == [
            "REP007", "REP007"
        ]

    def test_specific_and_out_of_scope_are_clean(self):
        assert codes(
            "try:\n    deliver()\nexcept ValueError:\n    pass\n",
            NET_PATH,
        ) == []
        # The orchestrator hardens against worker crashes on purpose.
        assert codes(
            "try:\n    go()\nexcept Exception:\n    pass\n", ORCH_PATH
        ) == []


class TestNoqaSuppression:
    def test_justified_inline_noqa_suppresses(self):
        result = lint_text(
            "import random\n"
            "x = random.random()  # repro: noqa[REP001] doc demo value\n",
            SIM_PATH,
        )
        assert result.findings == []
        assert result.noqa_suppressed == 1

    def test_justified_standalone_noqa_suppresses_next_line(self):
        result = lint_text(
            "import time\n"
            "# repro: noqa[REP002] manifest metadata, not a result\n"
            "stamp = time.time()\n",
            SIM_PATH,
        )
        assert result.findings == []
        assert result.noqa_suppressed == 1

    def test_unjustified_noqa_does_not_suppress(self):
        result = lint_text(
            "import random\n"
            "x = random.random()  # repro: noqa[REP001]\n",
            SIM_PATH,
        )
        found = sorted(f.code for f in result.findings)
        assert found == ["REP001", BAD_NOQA_CODE]

    def test_noqa_for_a_different_code_does_not_suppress(self):
        result = lint_text(
            "import random\n"
            "x = random.random()  # repro: noqa[REP004] wrong code\n",
            SIM_PATH,
        )
        assert [f.code for f in result.findings] == ["REP001"]


class TestSelectionAndErrors:
    SOURCE = "import random\nx = random.random() == 0.5\n"

    def test_select_restricts_codes(self):
        only = lint_text(
            self.SOURCE, SIM_PATH, select=frozenset(["REP004"])
        )
        assert [f.code for f in only.findings] == ["REP004"]

    def test_ignore_drops_codes(self):
        rest = lint_text(
            self.SOURCE, SIM_PATH, ignore=frozenset(["REP001"])
        )
        assert [f.code for f in rest.findings] == ["REP004"]

    def test_unknown_code_is_a_usage_error(self):
        with pytest.raises(LintUsageError):
            parse_code_list("REP999", "--select")

    def test_missing_path_is_a_usage_error(self):
        with pytest.raises(LintUsageError):
            lint_paths(["no/such/dir"])

    def test_syntax_error_reports_parse_finding(self):
        result = lint_text("def broken(:\n", SIM_PATH)
        assert [f.code for f in result.findings] == [PARSE_ERROR_CODE]

    def test_every_domain_rule_is_registered(self):
        assert sorted(all_rules()) == (
            ["ASY00%d" % i for i in range(1, 7)]
            + ["REP00%d" % i for i in range(1, 8)]
        )

    def test_family_prefix_expands_to_codes(self):
        codes = parse_code_list("ASY", "--select")
        assert codes == frozenset("ASY00%d" % i for i in range(1, 7))
        mixed = parse_code_list("REP001,ASY", "--select")
        assert "REP001" in mixed and "ASY003" in mixed

    def test_unknown_family_is_a_usage_error(self):
        with pytest.raises(LintUsageError):
            parse_code_list("ZZZ", "--select")


class TestCli:
    def test_lint_clean_exit_zero(self, tmp_path):
        good = tmp_path / "ok.py"
        good.write_text("x = 1\n")
        out = io.StringIO()
        assert main(["lint", str(good)], out=out) == 0
        assert "clean" in out.getvalue()

    def test_lint_findings_exit_one_and_json(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        out = io.StringIO()
        assert main(["lint", str(bad), "--json"], out=out) == 1
        payload = json.loads(out.getvalue())
        assert payload["clean"] is False
        assert payload["findings"][0]["code"] == "REP001"
        assert payload["files_scanned"] == 1

    def test_lint_usage_error_exit_two(self):
        out = io.StringIO()
        assert main(["lint", "no/such/path"], out=out) == 2
        assert main(["lint", "--select", "NOPE", "src"], out=out) == 2

    def test_list_rules(self):
        out = io.StringIO()
        assert main(["lint", "--list-rules"], out=out) == 0
        text = out.getvalue()
        for code in ["REP00%d" % i for i in range(1, 8)]:
            assert code in text
        for code in ["ASY00%d" % i for i in range(1, 7)]:
            assert code in text
        for code in ["SAN00%d" % i for i in range(1, 4)]:
            assert code in text


class TestSelfCheck:
    def test_tree_lints_clean_at_head(self):
        """The committed tree obeys its own determinism contract."""
        start = time.perf_counter()
        report = lint_paths([
            str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")
        ])
        elapsed = time.perf_counter() - start
        assert report.findings == [], "\n".join(
            f.format() for f in report.findings
        )
        # Every suppression in the tree is justified (REP008 would have
        # fired otherwise) and the gate stays fast enough for CI.
        assert report.files_scanned > 100
        assert elapsed < 5.0
