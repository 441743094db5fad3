"""Per-rule fixtures: each rule has at least one firing and one
non-firing case, exercised through the real :func:`lint_sources`
pipeline (the same code path ``repro lint`` runs on files)."""

from __future__ import annotations

from repro.analysis import lint_sources


def rules_fired(result):
    return sorted({f.rule for f in result.findings})


def findings_for(result, rule):
    return [f for f in result.findings if f.rule == rule]


# --------------------------------------------------------------------
# D101 -- ambient RNG
# --------------------------------------------------------------------


class TestAmbientRng:
    def test_numpy_default_rng_fires(self):
        result = lint_sources({
            "src/repro/thing.py": (
                "import numpy as np\n"
                "def f():\n"
                "    return np.random.default_rng(0).random()\n"
            ),
        }, select=["D101"])
        (finding,) = result.findings
        assert finding.rule == "D101"
        assert finding.line == 3
        assert "numpy.random.default_rng" in finding.message

    def test_stdlib_random_import_fires(self):
        result = lint_sources({
            "src/repro/thing.py": "import random\n",
        }, select=["D101"])
        assert rules_fired(result) == ["D101"]

    def test_from_numpy_random_import_fires(self):
        result = lint_sources({
            "src/repro/thing.py": "from numpy.random import default_rng\n",
        }, select=["D101"])
        assert rules_fired(result) == ["D101"]

    def test_blessed_rng_module_is_exempt(self):
        result = lint_sources({
            "src/repro/utils/rng.py": (
                "import numpy as np\n"
                "def new_rng(seed):\n"
                "    return np.random.default_rng(seed)\n"
            ),
        }, select=["D101"])
        assert result.findings == []

    def test_counter_stream_usage_is_clean(self):
        result = lint_sources({
            "src/repro/thing.py": (
                "from repro.utils.rng import counter_uniforms, new_rng\n"
                "def f(seed, sample, t):\n"
                "    return counter_uniforms(seed, sample, t, n=4)\n"
            ),
        }, select=["D101"])
        assert result.findings == []

    def test_generator_type_annotation_is_clean(self):
        # np.random.Generator in an annotation is a type, not a draw.
        result = lint_sources({
            "src/repro/thing.py": (
                "import numpy as np\n"
                "def f(rng: np.random.Generator) -> float:\n"
                "    return float(rng.random())\n"
            ),
        }, select=["D101"])
        assert result.findings == []


# --------------------------------------------------------------------
# D102 -- wall-clock reads
# --------------------------------------------------------------------


class TestWallClock:
    def test_perf_counter_fires(self):
        result = lint_sources({
            "src/repro/thing.py": (
                "import time\n"
                "def f():\n"
                "    return time.perf_counter()\n"
            ),
        }, select=["D102"])
        (finding,) = result.findings
        assert finding.rule == "D102"
        assert finding.line == 3

    def test_from_time_import_fires(self):
        result = lint_sources({
            "src/repro/thing.py": "from time import perf_counter\n",
        }, select=["D102"])
        assert rules_fired(result) == ["D102"]

    def test_datetime_now_fires(self):
        result = lint_sources({
            "src/repro/thing.py": (
                "import datetime\n"
                "stamp = datetime.datetime.now()\n"
            ),
        }, select=["D102"])
        assert rules_fired(result) == ["D102"]

    def test_monotonic_is_exempt(self):
        # Deadline arithmetic bounds when work stops, never what it
        # computes -- time.monotonic is exempt by design.
        result = lint_sources({
            "src/repro/thing.py": (
                "import time\n"
                "def wait(deadline):\n"
                "    return time.monotonic() < deadline\n"
            ),
        }, select=["D102"])
        assert result.findings == []

    def test_blessed_measurement_modules_are_exempt(self):
        source = "import time\nms = time.perf_counter()\n"
        path = "src/repro/utils/timing.py"
        result = lint_sources({path: source}, select=["D102"])
        assert result.findings == [], path

    def test_time_sleep_is_clean(self):
        result = lint_sources({
            "src/repro/thing.py": "import time\ntime.sleep(0.1)\n",
        }, select=["D102"])
        assert result.findings == []


# --------------------------------------------------------------------
# P101 -- ambient environment reads
# --------------------------------------------------------------------


class TestAmbientEnv:
    def test_environ_get_fires(self):
        result = lint_sources({
            "src/repro/runtime/thing.py": (
                "import os\n"
                "value = os.environ.get('SOME_VAR', '1')\n"
            ),
        }, select=["P101"])
        (finding,) = result.findings
        assert finding.rule == "P101"

    def test_getenv_fires(self):
        result = lint_sources({
            "src/repro/runtime/thing.py": (
                "import os\nvalue = os.getenv('SOME_VAR')\n"
            ),
        }, select=["P101"])
        assert rules_fired(result) == ["P101"]

    def test_environ_subscript_read_fires(self):
        result = lint_sources({
            "src/repro/runtime/thing.py": (
                "import os\nvalue = os.environ['SOME_VAR']\n"
            ),
        }, select=["P101"])
        assert rules_fired(result) == ["P101"]

    def test_config_module_is_blessed(self):
        result = lint_sources({
            "src/repro/runtime/config.py": (
                "import os\nvalue = os.environ.get('SOME_VAR', '1')\n"
            ),
        }, select=["P101"])
        assert result.findings == []

    def test_environ_write_is_legal(self):
        # Writes are the documented parent-side scoping mechanism
        # (e.g. pinning REPRO_WORKERS=1 in worker bootstraps).
        result = lint_sources({
            "src/repro/parallel/thing.py": (
                "import os\nos.environ['SOME_VAR'] = '1'\n"
            ),
        }, select=["P101"])
        assert result.findings == []


# --------------------------------------------------------------------
# P102 -- mutable module state reachable from workers
# --------------------------------------------------------------------

_POOL = (
    "def run_tasks(cell, payloads):\n"
    "    return [cell(p) for p in payloads]\n"
)

_WORKER_WITH_CACHE = (
    "_CACHE = {}\n"
    "def _cell(payload):\n"
    "    _CACHE[payload] = payload\n"
    "    return payload\n"
)

_DRIVER = (
    "from repro.parallel.pool import run_tasks\n"
    "from repro.work import _cell\n"
    "def drive(items):\n"
    "    return run_tasks(_cell, items)\n"
)


class TestWorkerMutableState:
    def test_shipped_callable_module_fires(self):
        result = lint_sources({
            "src/repro/parallel/pool.py": _POOL,
            "src/repro/work.py": _WORKER_WITH_CACHE,
            "src/repro/driver.py": _DRIVER,
        }, select=["P102"])
        findings = findings_for(result, "P102")
        assert any(f.path == "src/repro/work.py" for f in findings)
        assert "repro.work" in result.worker_reachable

    def test_unreachable_module_is_clean(self):
        # Same mutable state, but nothing ships its callables to a pool.
        result = lint_sources({
            "src/repro/work.py": _WORKER_WITH_CACHE,
        }, select=["P102"])
        assert result.findings == []
        assert "repro.work" not in result.worker_reachable

    def test_executor_module_is_itself_a_root(self):
        result = lint_sources({
            "src/repro/parallel/pool.py": (
                "_STATE = {}\n" + _POOL +
                "def remember(key, value):\n"
                "    _STATE[key] = value\n"
            ),
        }, select=["P102"])
        assert rules_fired(result) == ["P102"]

    def test_initializer_kwarg_ships_too(self):
        result = lint_sources({
            "src/repro/parallel/pool.py": (
                "def run_tasks(cell, payloads, initializer=None):\n"
                "    return [cell(p) for p in payloads]\n"
            ),
            "src/repro/boot.py": (
                "_LOADED = {}\n"
                "def _init():\n"
                "    _LOADED['model'] = object()\n"
            ),
            "src/repro/driver.py": (
                "from repro.parallel.pool import run_tasks\n"
                "from repro.boot import _init\n"
                "def drive(cell, items):\n"
                "    return run_tasks(cell, items, initializer=_init)\n"
            ),
        }, select=["P102"])
        assert any(
            f.path == "src/repro/boot.py"
            for f in findings_for(result, "P102")
        )

    def test_import_closure_extends_reachability(self):
        # driver ships work._cell; work imports helper; helper's module
        # state is therefore worker-reachable too.
        result = lint_sources({
            "src/repro/parallel/pool.py": _POOL,
            "src/repro/helper.py": (
                "_MEMO = {}\n"
                "def lookup(key):\n"
                "    _MEMO[key] = True\n"
                "    return key\n"
            ),
            "src/repro/work.py": (
                "from repro.helper import lookup\n"
                "def _cell(payload):\n"
                "    return lookup(payload)\n"
            ),
            "src/repro/driver.py": _DRIVER,
        }, select=["P102"])
        assert any(
            f.path == "src/repro/helper.py"
            for f in findings_for(result, "P102")
        )

    def test_local_shadow_is_clean(self):
        # A function-local binding shadows the module name: mutating the
        # local is not module state.
        result = lint_sources({
            "src/repro/parallel/pool.py": _POOL + (
                "_CACHE = None\n"
                "def local_work():\n"
                "    _CACHE = {}\n"
                "    _CACHE['k'] = 1\n"
                "    return _CACHE\n"
            ),
        }, select=["P102"])
        assert result.findings == []

    def test_lock_binding_is_exempt(self):
        result = lint_sources({
            "src/repro/parallel/pool.py": _POOL + (
                "import threading\n"
                "_LOCK = threading.Lock()\n"
                "def locked():\n"
                "    with _LOCK:\n"
                "        _LOCK.acquire\n"
            ),
        }, select=["P102"])
        assert result.findings == []

    def test_global_rebind_fires(self):
        result = lint_sources({
            "src/repro/parallel/pool.py": _POOL + (
                "_COUNTER = 0\n"
                "def bump():\n"
                "    global _COUNTER\n"
                "    _COUNTER += 1\n"
            ),
        }, select=["P102"])
        assert rules_fired(result) == ["P102"]


# --------------------------------------------------------------------
# E101 / E102 -- typed-error discipline
# --------------------------------------------------------------------


class TestTypedErrors:
    def test_bare_except_in_parallel_fires(self):
        result = lint_sources({
            "src/repro/parallel/thing.py": (
                "def f():\n"
                "    try:\n"
                "        work()\n"
                "    except Exception:\n"
                "        pass\n"
            ),
        }, select=["E101"])
        (finding,) = result.findings
        assert finding.rule == "E101"
        assert finding.line == 4

    def test_reraising_broad_except_is_clean(self):
        result = lint_sources({
            "src/repro/parallel/thing.py": (
                "def f():\n"
                "    try:\n"
                "        work()\n"
                "    except Exception:\n"
                "        cleanup()\n"
                "        raise\n"
            ),
        }, select=["E101"])
        assert result.findings == []

    def test_typed_except_is_clean(self):
        result = lint_sources({
            "src/repro/serving/thing.py": (
                "from repro.errors import ServingError\n"
                "def f():\n"
                "    try:\n"
                "        work()\n"
                "    except ServingError:\n"
                "        pass\n"
            ),
        }, select=["E101"])
        assert result.findings == []

    def test_outside_typed_dirs_is_out_of_scope(self):
        result = lint_sources({
            "src/repro/experiments/thing.py": (
                "def f():\n"
                "    try:\n"
                "        work()\n"
                "    except Exception:\n"
                "        pass\n"
            ),
        }, select=["E101"])
        assert result.findings == []

    def test_builtin_raise_in_faults_fires(self):
        result = lint_sources({
            "src/repro/faults/thing.py": (
                "def f(spec):\n"
                "    raise ValueError('bad spec ' + spec)\n"
            ),
        }, select=["E102"])
        (finding,) = result.findings
        assert finding.rule == "E102"
        assert "ValueError" in finding.message

    def test_repro_error_raise_is_clean(self):
        result = lint_sources({
            "src/repro/faults/thing.py": (
                "from repro.errors import FaultPlanError\n"
                "def f(spec):\n"
                "    raise FaultPlanError('bad spec ' + spec)\n"
            ),
        }, select=["E102"])
        assert result.findings == []


# --------------------------------------------------------------------
# R101 / R102 / R103 -- registry drift
# --------------------------------------------------------------------


class TestRegistryDrift:
    def test_unregistered_env_token_fires(self):
        result = lint_sources({
            "src/repro/thing.py": "# reads REPRO_TOTALLY_BOGUS at startup\n",
        }, select=["R101"])
        (finding,) = result.findings
        assert finding.rule == "R101"
        assert "REPRO_TOTALLY_BOGUS" in finding.message

    def test_registered_env_token_is_clean(self):
        result = lint_sources({
            "src/repro/thing.py": "# honours REPRO_WORKERS like the rest\n",
        }, select=["R101"])
        assert result.findings == []

    def test_family_prefix_token_is_clean(self):
        result = lint_sources({
            "src/repro/thing.py": "# the REPRO_RETRY_* family\n",
        }, select=["R101"])
        assert result.findings == []

    def test_unregistered_flag_fires(self):
        result = lint_sources({
            "src/repro/thing.py": (
                "def build(parser):\n"
                "    parser.add_argument('--totally-bogus-flag')\n"
            ),
        }, select=["R102"])
        (finding,) = result.findings
        assert finding.rule == "R102"

    def test_registered_flag_is_clean(self):
        result = lint_sources({
            "src/repro/thing.py": (
                "def build(parser):\n"
                "    parser.add_argument('--workers', type=int)\n"
            ),
        }, select=["R102"])
        assert result.findings == []

    def test_stale_registry_fires_when_registry_in_scope(self):
        # The registry module is scanned, but the scanned tree mentions
        # none of the registered variables -> every entry is stale.
        result = lint_sources({
            "src/repro/analysis/registry.py": "REGISTRY = 'placeholder'\n",
            "src/repro/thing.py": "x = 1\n",
        }, select=["R103"])
        stale = findings_for(result, "R103")
        assert stale
        assert all(f.path == "src/repro/analysis/registry.py" for f in stale)
        assert any("REPRO_WORKERS" in f.message for f in stale)

    def test_no_registry_in_scope_no_stale_pass(self):
        result = lint_sources({
            "src/repro/thing.py": "x = 1\n",
        }, select=["R103"])
        assert result.findings == []


# --------------------------------------------------------------------
# X100 / X101 -- engine pseudo-rules
# --------------------------------------------------------------------


class TestEngineRules:
    def test_syntax_error_surfaces_as_x100(self):
        result = lint_sources({
            "src/repro/broken.py": "def f(:\n",
            "src/repro/fine.py": "x = 1\n",
        })
        (finding,) = result.findings
        assert finding.rule == "X100"
        assert finding.path == "src/repro/broken.py"
        # The parse failure never aborts the run for other files.
        assert result.files_scanned == 2

    def test_unjustified_pragma_is_x101(self):
        result = lint_sources({
            "src/repro/thing.py": (
                "import time\n"
                "t = time.perf_counter()  # repro: lint-ok[D102]\n"
            ),
        })
        # The D102 finding is still suppressed, but the naked pragma is
        # itself reported.
        assert rules_fired(result) == ["X101"]
        assert result.suppressed == 1

    def test_justified_pragma_is_clean(self):
        result = lint_sources({
            "src/repro/thing.py": (
                "import time\n"
                "t = time.perf_counter()  # repro: lint-ok[D102] bench-only\n"
            ),
        })
        assert result.findings == []
        assert result.suppressed == 1
