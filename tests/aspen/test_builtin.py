"""Tests for the built-in Aspen model library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.aspen import MachineModel, compile_source, parse
from repro.aspen.builtin import (
    DSL_KERNELS,
    MACHINE_LIBRARY,
    all_builtin_sources,
    builtin_source,
)
from repro.cachesim import PAPER_CACHES
from repro.kernels import KERNELS, TEST_WORKLOADS


class TestBuiltinSources:
    @pytest.mark.parametrize("name", DSL_KERNELS)
    def test_source_parses(self, name):
        program = parse(builtin_source(name, "test"))
        assert len(program.models) == 1

    @pytest.mark.parametrize("name", DSL_KERNELS)
    def test_compiles_against_every_paper_cache(self, name):
        source = builtin_source(name, "test")
        for cache in PAPER_CACHES.values():
            machine = MachineModel.from_geometry(cache)
            compiled = compile_source(source, machine=machine)
            assert compiled.nha_total() > 0

    @pytest.mark.parametrize("name", ["VM", "CG"])
    def test_dsl_matches_direct_model(self, name):
        """The DSL path and the direct estimator path must agree."""
        kernel = KERNELS[name]
        workload = TEST_WORKLOADS[name]
        geometry = PAPER_CACHES["small"]
        machine = MachineModel.from_geometry(geometry)
        compiled = compile_source(kernel.aspen_source(workload), machine=machine)
        direct = kernel.estimate_nha(workload, geometry)
        for structure, value in compiled.nha_by_structure().items():
            assert value == pytest.approx(direct[structure], rel=1e-6), (
                name,
                structure,
            )

    def test_mc_dsl_close_to_direct_model(self):
        """MC's DSL form uses the paper's k=1 grid model (the DSL cannot
        carry per-element visit-frequency arrays); it tracks the direct
        working-set model closely but not exactly."""
        kernel = KERNELS["MC"]
        workload = TEST_WORKLOADS["MC"]
        geometry = PAPER_CACHES["small"]
        machine = MachineModel.from_geometry(geometry)
        compiled = compile_source(kernel.aspen_source(workload), machine=machine)
        direct = kernel.estimate_nha(workload, geometry)
        dsl = compiled.nha_by_structure()
        assert dsl["E"] == pytest.approx(direct["E"], rel=1e-6)
        assert dsl["G"] == pytest.approx(direct["G"], rel=0.5)

    def test_unknown_kernel(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            builtin_source("XX")

    def test_all_builtin_sources(self):
        sources = all_builtin_sources("test")
        assert set(sources) == set(DSL_KERNELS)


class TestMachineLibrary:
    def test_library_parses(self):
        program = parse(MACHINE_LIBRARY)
        assert len(program.machines) == len(PAPER_CACHES)

    def test_machines_match_geometries(self):
        program = parse(MACHINE_LIBRARY)
        machine = MachineModel.from_decl(program.machine("small"))
        assert machine.cache.capacity == PAPER_CACHES["small"].capacity

    def test_combined_source_usable(self):
        compiled = compile_source(
            builtin_source("VM", "test") + MACHINE_LIBRARY, machine="large"
        )
        assert compiled.nha_total() > 0


class TestHashSeedIndependence:
    """Report rows and ``DVF_a`` must not follow ``PYTHONHASHSEED``."""

    PROBE = """
from repro.aspen import MACHINE_LIBRARY, builtin_source, compile_source
from repro.experiments.aspen_batch import compiled_report

source = builtin_source("CG", "test") + MACHINE_LIBRARY
for mode in ("strict", "lenient"):
    report = compiled_report(
        compile_source(source, machine="cache_16kb", mode=mode)
    )
    print([s.name for s in report.structures], repr(report.dvf_application))
"""

    def test_cg_rows_and_dvf_a_equal_across_hash_seeds(self):
        src = Path(__file__).resolve().parents[2] / "src"
        outputs = []
        for seed in ("0", "1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
            run = subprocess.run(
                [sys.executable, "-c", self.PROBE],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        # First appearance in CG's access order "(Ap)p(xp)rr(rp)".
        assert outputs[0].splitlines()[0].startswith("['A', 'p', 'x', 'r']")
