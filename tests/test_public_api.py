"""The public API surface: every exported name resolves and is stable."""

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists {name!r} " \
                "but the attribute is missing"

    def test_version_is_pep440_ish(self):
        parts = repro.__version__.split(".")
        assert len(parts) >= 2
        assert all(p.isdigit() for p in parts[:2])

    def test_headline_entry_points_exist(self):
        # the names the README quickstart relies on
        for name in (
            "analyze_chain", "error_pmf",
            "metrics_from_pmf", "HybridChain", "chain_is_exact",
            "symbolic_error_probability", "paper_cell", "get_cell",
            "PAPER_LPAAS", "derive_matrices",
        ):
            assert name in repro.__all__
            assert callable(getattr(repro, name)) or name == "PAPER_LPAAS"

    def test_subpackages_importable(self):
        import repro.ant
        import repro.baselines
        import repro.circuits
        import repro.datapath
        import repro.explore
        import repro.gear
        import repro.io
        import repro.multiop
        import repro.simulation

        for module in (
            repro.simulation, repro.baselines, repro.gear,
            repro.circuits, repro.explore, repro.multiop,
        ):
            assert module.__all__, f"{module.__name__} exports nothing"
            for name in module.__all__:
                assert hasattr(module, name), (
                    f"{module.__name__}.__all__ lists {name!r} "
                    "but the attribute is missing"
                )

    def test_no_accidental_module_reexports(self):
        # __all__ should list API objects, not submodules
        import types

        for name in repro.__all__:
            assert not isinstance(getattr(repro, name), types.ModuleType)
