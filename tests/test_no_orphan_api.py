"""Every public definition in ``src/`` has a caller outside ``tests/``.

The scan parses each module under ``src/`` and lists its public
module-level functions and classes and the public methods of its
public classes.  A function or class counts as used when its name
appears, as a name, an attribute, an imported name or an
identifier-valued string, in a program file under ``src/``,
``surfbench/``, ``benchmarks/`` or ``examples/``.  A method counts as
used only as an attribute or a string: a local variable that shares
its name does not call it.  A package ``__init__.py`` re-export and a module's
``__all__`` list are not uses: they publish a name without calling it.
A string constant counts, so a name reached through ``getattr`` or a
string-keyed table is not reported.

A public definition that only tests reach is dead API: delete it with
its tests, or add it to ``ALLOWED`` with the reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = ("src", "surfbench", "benchmarks", "examples")

ORACLE = "reference implementation a test compares the fast path against"
FRONTEND = "ServiceFrontend protocol; the conformance tests hold every broker frontend to it"
DRIVER_WRITE = "a surface modality's write primitive in the driver API (PAPER.md §3, DESIGN.md)"
DEVICE_LIFECYCLE = "hardware manager device lifecycle (PAPER.md §3)"
IDLE_RECLAIM = (
    "the scheduler's idle reclaim (paper §3.2, quoted in scheduler.py): an idle "
    "task frees its slices and resumes on fresh ones; no workload parks a task yet"
)
UNREVIEWED = "test-only helper not yet reviewed for deletion (ROADMAP item 9)"

ALLOWED = {
    "repro.analysis.cdf.EmpiricalCDF.curve": UNREVIEWED,
    "repro.broker.broker.ServiceBroker.applications": FRONTEND,
    "repro.broker.broker.ServiceBroker.handle_for": FRONTEND,
    "repro.broker.broker.ServiceBroker.unsatisfied": UNREVIEWED,
    "repro.broker.frontend.ServiceFrontend": FRONTEND,
    "repro.broker.frontend.ServiceFrontend.applications": FRONTEND,
    "repro.broker.frontend.ServiceFrontend.handle_for": FRONTEND,
    "repro.broker.handle.ServiceHandle.wait": "README's application API: pump until served",
    "repro.channel.geomkernels.CompiledGeometry.box_crossing_matrix": ORACLE,
    "repro.channel.geomkernels.CompiledGeometry.wall_crossing_matrix": ORACLE,
    "repro.channel.model.LinearChannelForm.evaluate_many": ORACLE,
    "repro.channel.nodes.RadioNode.centroid": UNREVIEWED,
    "repro.channel.tracer.PanelObstacle.crossing_mask": ORACLE,
    "repro.channel.tracer.reflection_paths": ORACLE,
    "repro.core.configuration.Granularity.degrees_of_freedom": UNREVIEWED,
    "repro.core.configuration.SurfaceConfiguration.quantized": ORACLE,
    "repro.core.configuration.SurfaceConfiguration.tied": ORACLE,
    "repro.core.kernel.SurfOS.add_sensor": DEVICE_LIFECYCLE,
    "repro.core.kernel.SurfOS.handle_user_demand": (
        "README quickstart's natural-language demand call"
    ),
    "repro.core.kernel.SurfOS.serve_application": (
        "the kernel's app-facing broker call (PAPER.md §3)"
    ),
    "repro.drivers.amplitude.AmplitudeDriver.greedy_mask": "RFocus on/off mask selection (Table 1)",
    "repro.drivers.amplitude.AmplitudeDriver.set_amplitudes": DRIVER_WRITE,
    "repro.drivers.base.SurfaceDriver.apply_feedback": (
        "endpoint-feedback choice among stored configurations (PAPER.md §4)"
    ),
    "repro.drivers.phase.ProgrammablePhaseDriver.load_beam_codebook": (
        "stored beam codebook for data-plane beam switching (PAPER.md §4)"
    ),
    "repro.drivers.phase.ProgrammablePhaseDriver.set_phase_shifts": DRIVER_WRITE,
    "repro.drivers.polarization.PolarizationDriver.set_polarizations": DRIVER_WRITE,
    "repro.em.antenna.AntennaPattern.amplitude_toward": ORACLE,
    "repro.em.noise.snr_db_from_channel": ORACLE,
    "repro.em.propagation.complex_leg_gain": ORACLE,
    "repro.em.steering.beam_codebook_targets": (
        "the beam grid the beam-tracking integration test switches through"
    ),
    "repro.experiments.result.ExperimentResultBase.to_json": UNREVIEWED,
    "repro.fleet.broker.FleetBroker.applications": FRONTEND,
    "repro.fleet.broker.FleetBroker.handle_for": FRONTEND,
    "repro.fleet.broker.FleetBroker.reinstate_shard": (
        "the way back from quarantine_shard, which the fleet scenario calls"
    ),
    "repro.geometry.environment.Environment.move_dynamic_box": (
        "dynamic-obstacle lifecycle; walkers use add_dynamic_box"
    ),
    "repro.geometry.environment.Environment.penetration_amplitude": UNREVIEWED,
    "repro.geometry.environment.Environment.reflective_walls": UNREVIEWED,
    "repro.geometry.environment.Environment.remove_dynamic_box": (
        "dynamic-obstacle lifecycle; walkers use add_dynamic_box"
    ),
    "repro.geometry.environment.Environment.rooms": UNREVIEWED,
    "repro.geometry.environment.describe_obstructions": UNREVIEWED,
    "repro.geometry.materials.Material.penetration_amplitude": UNREVIEWED,
    "repro.geometry.materials.get_material": UNREVIEWED,
    "repro.geometry.shapes.Box.contains": UNREVIEWED,
    "repro.geometry.shapes.Room.contains": UNREVIEWED,
    "repro.geometry.shapes.Wall.contains_footprint_point": UNREVIEWED,
    "repro.geometry.shapes.Wall.mirror_point": ORACLE,
    "repro.geometry.vec.centroid": UNREVIEWED,
    "repro.hwmgr.manager.HardwareManager.pending_total": UNREVIEWED,
    "repro.hwmgr.manager.HardwareManager.quarantine": UNREVIEWED,
    "repro.hwmgr.manager.HardwareManager.specifications": UNREVIEWED,
    "repro.hwmgr.manager.HardwareManager.unregister_access_point": DEVICE_LIFECYCLE,
    "repro.hwmgr.manager.HardwareManager.unregister_sensor": DEVICE_LIFECYCLE,
    "repro.hwmgr.manager.HardwareManager.unregister_surface": DEVICE_LIFECYCLE,
    "repro.llm.datasheet.driver_from_datasheet": (
        "LLM driver generation from a datasheet (PAPER.md §4)"
    ),
    "repro.mobility.models.write_mobility_trace": UNREVIEWED,
    "repro.orchestrator.objectives.FiniteDifferenceObjective": ORACLE,
    "repro.orchestrator.orchestrator.SurfaceOrchestrator.activate_task_slot": (
        "the data-plane slot switch of time-division multiplexing (DESIGN.md)"
    ),
    "repro.orchestrator.orchestrator.SurfaceOrchestrator.evaluate_task": (
        "the per-task SNR probe the integration tests measure with"
    ),
    "repro.orchestrator.scheduler.Scheduler.resume": IDLE_RECLAIM,
    "repro.orchestrator.scheduler.Scheduler.set_idle": IDLE_RECLAIM,
    "repro.orchestrator.virtualization.Hypervisor.create_frontend": (
        "multi-tenant frontend of the §5 virtualization roadmap"
    ),
    "repro.runtime.events.EventBus.events_of": UNREVIEWED,
    "repro.services.connectivity.CoverageReport.from_snrs": UNREVIEWED,
    "repro.services.connectivity.link_objective": UNREVIEWED,
    "repro.services.connectivity.required_snr_for_throughput": UNREVIEWED,
    "repro.services.powering.powering_report": UNREVIEWED,
    "repro.services.security.secrecy_report": UNREVIEWED,
    "repro.services.sensing.AoAEstimator.num_candidates": UNREVIEWED,
    "repro.services.sensing.SurfaceAoAObjective.estimated_indices": UNREVIEWED,
    "repro.surfaces.catalog.get_design": UNREVIEWED,
    "repro.surfaces.panel.SurfacePanel.sees": UNREVIEWED,
    "repro.surfaces.specs.OperationMode.reflects": UNREVIEWED,
    "repro.telemetry.core.Telemetry.events": (
        "read side of event(): the only in-process view of recorded events"
    ),
}


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def public_definitions(src: Path = SRC) -> dict[str, str]:
    """``{qualified name: bare name}`` of every public definition in ``src``."""
    found: dict[str, str] = {}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(src.rglob("*.py")):
        module = _module_name(path, src)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            found[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                        found[f"{module}.{node.name}.{item.name}"] = item.name
    return found


def _names_used(tree: ast.AST, *, count_imports: bool) -> tuple[set[str], set[str]]:
    """``(names, members)`` a module uses.

    ``members`` are attribute accesses and identifier-valued strings, the
    ways a method is reached; ``names`` adds bare names and imports, the
    ways a module-level function or class is reached too.
    """
    published = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for sub in ast.walk(node.value)
    }
    names: set[str] = set()
    members: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif isinstance(node, ast.alias) and count_imports:
            names.add(node.name.rpartition(".")[2])
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in published
        ):
            members.add(node.value)
    return names | members, members


def orphans(root: Path = ROOT) -> list[str]:
    names: set[str] = set()
    members: set[str] = set()
    for folder in CALLER_DIRS:
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            package_init = folder == "src" and path.name == "__init__.py"
            found, reached = _names_used(tree, count_imports=not package_init)
            names |= found
            members |= reached
    definitions = public_definitions(root / "src")
    # A method (its class is a definition too) is reached only as a member.
    return sorted(
        q
        for q, name in definitions.items()
        if name not in (members if q.rpartition(".")[0] in definitions else names)
    )


def test_every_public_definition_has_a_caller_outside_tests():
    unexpected = [q for q in orphans() if q not in ALLOWED]
    assert not unexpected, (
        "public definitions that nothing outside tests/ uses; delete them "
        f"with their tests or allow them with a reason: {unexpected}"
    )


def test_allowlist_names_only_live_orphans():
    found = set(orphans())
    stale = sorted(q for q in ALLOWED if q not in found)
    assert not stale, f"ALLOWED entries that are used now or no longer exist: {stale}"


def _tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_scan_reports_an_uncalled_public_function(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def used():\n    pass\n\n\ndef uncalled():\n    pass\n",
            "examples/demo.py": "from pkg.mod import used\n\nused()\n",
            "tests/test_mod.py": "from pkg.mod import uncalled\n\nuncalled()\n",
        },
    )
    assert orphans(root) == ["pkg.mod.uncalled"]


def test_scan_ignores_package_reexports_and_all(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/pkg/__init__.py": (
                "from .mod import Thing, helper\n\n__all__ = [\"Thing\", \"helper\"]\n"
            ),
            "src/pkg/mod.py": (
                "class Thing:\n    def go(self):\n        pass\n\n\n"
                "def helper():\n    pass\n"
            ),
            "src/pkg/user.py": "from .mod import Thing\n\nThing()\n",
        },
    )
    assert orphans(root) == ["pkg.mod.Thing.go", "pkg.mod.helper"]


def test_scan_counts_string_dispatch_as_a_use(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/pkg/mod.py": "def by_name():\n    pass\n",
            "src/pkg/table.py": (
                "import pkg.mod as m\n\nHANDLER = getattr(m, \"by_name\")\n"
            ),
        },
    )
    assert orphans(root) == []


def test_scan_needs_a_member_use_for_a_method(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/pkg/mod.py": (
                "class Thing:\n    def tied(self):\n        pass\n\n"
                "    def called(self):\n        pass\n\n"
                "    def named(self):\n        pass\n\n\n"
                "def helper():\n    pass\n"
            ),
            "src/pkg/user.py": (
                "from .mod import Thing\n\n"
                "tied = helper = named = 1\n"
                "Thing().called()\nHANDLER = \"named\"\n"
            ),
        },
    )
    # A bare name reaches a function, but not a method of the same name.
    assert orphans(root) == ["pkg.mod.Thing.tied"]


def test_scan_skips_private_definitions(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/pkg/mod.py": (
                "def _helper():\n    pass\n\n\n"
                "class _Hidden:\n    def visible(self):\n        pass\n\n\n"
                "class Shown:\n    def _private(self):\n        pass\n"
            ),
            "src/pkg/user.py": "from .mod import Shown\n\nShown()\n",
        },
    )
    assert public_definitions(root / "src") == {"pkg.mod.Shown": "Shown"}
    assert orphans(root) == []
