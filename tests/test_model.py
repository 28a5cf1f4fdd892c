import dataclasses

import numpy as np
import pytest

import jjcavity as jc
from jjcavity.model import j_matrix, sigma_matrix, validate_model


class TestJSigma:
    def test_j_n1(self):
        assert np.array_equal(j_matrix(1), np.diag([1.0, -1.0]))

    def test_sigma_n2_positions(self):
        sig = sigma_matrix(2)
        expected = np.zeros((4, 4))
        for i, j in [(0, 2), (1, 3), (2, 0), (3, 1)]:
            expected[i, j] = 1.0
        assert np.array_equal(sig, expected)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_identities_exact(self, n):
        J, sig = j_matrix(n), sigma_matrix(n)
        eye = np.eye(2 * n)
        assert np.array_equal(J @ J, eye)
        assert np.array_equal(sig @ sig, eye)
        assert np.array_equal(J @ sig + sig @ J, np.zeros((2 * n, 2 * n)))

    def test_bad_n(self):
        with pytest.raises(ValueError):
            j_matrix(0)
        with pytest.raises(ValueError):
            sigma_matrix(-1)


class TestValidateModel:
    def test_builder_output_is_clean(self, paper_model):
        assert validate_model(paper_model) == []

    def test_zero_model_is_clean(self):
        m = jc.SystemModel(
            n_modes=2, M=np.zeros((4, 4)), N=np.zeros((4, 4)),
            Etilde=np.zeros((1, 4)), gamma=1.0,
        )
        assert validate_model(m) == []

    def test_nonsymmetric_m2_named(self, paper_model):
        M = paper_model.M.copy()
        M[0, 3] += 0.1 * np.max(np.abs(M))          # breaks M2 = M2^T
        m = jc.SystemModel(
            n_modes=2, M=M, N=paper_model.N, Etilde=paper_model.Etilde,
            gamma=paper_model.gamma,
        )
        violations = validate_model(m)
        assert any("M2 transpose-symmetry" in v for v in violations)

    def test_dimension_mismatch_is_hard_error(self):
        with pytest.raises(ValueError, match="must be"):
            jc.SystemModel(
                n_modes=2, M=np.zeros((3, 3)), N=np.zeros((4, 4)),
                Etilde=np.zeros((1, 4)), gamma=1.0,
            )

    def test_bad_constants_reported(self):
        m = jc.SystemModel(
            n_modes=1, M=np.zeros((2, 2)), N=np.zeros((2, 2)),
            Etilde=np.zeros((1, 2)), gamma=-1.0, delta1=-0.5,
        )
        violations = validate_model(m)
        assert any("gamma" in v for v in violations)
        assert any("delta1" in v for v in violations)

    def test_idempotent_and_pure(self, paper_model):
        assert validate_model(paper_model) == validate_model(paper_model)

    @pytest.mark.parametrize("name, entry, value, message", [
        ("M", (0, 0), np.nan, "M has a non-finite entry at (0,0)"),
        ("M", (2, 1), np.inf, "M has a non-finite entry at (2,1)"),
        ("N", (1, 3), complex(0.0, -np.inf), "N has a non-finite entry at (1,3)"),
        ("Etilde", (0, 1), np.nan, "Etilde has a non-finite entry at (0,1)"),
    ])
    def test_nonfinite_entry_reported_first_of_its_matrix(self, paper_model, name, entry, value, message):
        A = getattr(paper_model, name).copy()
        A[entry] = value
        A[-1, -1] = np.nan   # a later non-finite entry is not the one named
        assert validate_model(dataclasses.replace(paper_model, **{name: A})) == [message]

    @pytest.mark.parametrize("field, value, message", [
        ("delta1", np.nan, "delta1 must be finite, got nan"),
        ("delta2", np.inf, "delta2 must be finite, got inf"),
        ("delta2", -np.inf, "delta2 must be finite, got -inf"),
        ("gamma", np.inf, "gamma must be finite, got inf"),
        ("gamma", np.nan, "gamma must be positive, got nan"),
    ])
    def test_nonfinite_constants_rejected(self, paper_model, field, value, message):
        assert validate_model(dataclasses.replace(paper_model, **{field: value})) == [message]

    def test_constants_must_be_numbers(self, paper_model):
        for field, value in (("gamma", "big"), ("delta1", None), ("delta2", True)):
            with pytest.raises(ValueError, match=f"{field} must be a number, got {value!r}"):
                dataclasses.replace(paper_model, **{field: value})

    def test_every_violation_of_a_model_reported_in_order(self, paper_model):
        # matrix checks first (M, then N, then Etilde), then the constants;
        # a non-finite matrix is named once and its structure not checked
        M = paper_model.M.copy()
        M[0, 3] += 0.1 * np.max(np.abs(M))
        Mnan = paper_model.M.copy()
        Mnan[1, 2] = np.nan
        assert validate_model(dataclasses.replace(paper_model, M=M, delta1=-1.0)) == [
            "M Hermitian symmetry violated at (0,3): 1.054e+11",
            "M2 transpose-symmetry violated at (0,1): 1.054e+11",
            "M block-conjugate symmetry: lower row entry (2,1) differs from conjugated upper row by 1.054e+11",
            "delta1 must be nonnegative, got -1.0",
        ]
        assert validate_model(dataclasses.replace(paper_model, M=Mnan, gamma=0.0)) == [
            "M has a non-finite entry at (1,2)", "gamma must be positive, got 0.0"]


class TestPhysicalParams:
    def test_replace_validates_and_rejects_unknown_fields(self, paper_params):
        assert paper_params.replace(kappa2=1e12).kappa2 == 1e12
        with pytest.raises(ValueError, match="coupling rates"):
            paper_params.replace(kappa2=-1.0)
        with pytest.raises(TypeError):
            paper_params.replace(kappa3=1.0)

    def test_from_json_round_trip(self, paper_params):
        assert jc.PhysicalParams.from_json(paper_params.to_json()) == paper_params

    @pytest.mark.parametrize("text, message", [
        ("[1]", "must be an object, got list"),
        ('"omega"', "must be an object, got str"),
        ('{"omega": "x", "g": 0.15, "U": 2.2e-22, "Jp": 3.7e11}', "omega must be a real number, got 'x'"),
        ('{"omega": true, "g": 0.15, "U": 2.2e-22, "Jp": 3.7e11}', "omega must be a real number, got True"),
        ('{"omega": 1.0, "g": 0.15, "U": 2.2e-22, "Jp": 3.7e11, "kappa3": 1}', "unknown parameter 'kappa3'"),
    ], ids=["list", "string", "string-value", "bool-value", "unknown-key"])
    def test_from_json_rejects_malformed(self, text, message):
        with pytest.raises(ValueError, match=message):
            jc.PhysicalParams.from_json(text)


class TestSerialization:
    def test_round_trip_bit_for_bit(self, paper_model):
        again = jc.SystemModel.from_json(paper_model.to_json())
        assert np.array_equal(again.M, paper_model.M)
        assert np.array_equal(again.N, paper_model.N)
        assert np.array_equal(again.Etilde, paper_model.Etilde)
        assert again.gamma == paper_model.gamma
        assert again.delta1 == paper_model.delta1
        assert again.delta2 == paper_model.delta2
        assert again.to_json() == paper_model.to_json()

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        from conftest import make_random_model

        m = make_random_model(rng)
        again = jc.SystemModel.from_json(m.to_json())
        assert np.array_equal(again.M, m.M)
        assert np.array_equal(again.Etilde, m.Etilde)

    @pytest.mark.parametrize("edit, message", [
        ({"M": None}, "lacks key 'M'"),
        ({"M": [[1, 2]]}, r"M\[0\]\[0\] must be a \[re, im\] pair"),
        ({"N": 3}, "N must be a list of rows"),
        ({"Etilde": [[[1.0, "x"], [0, 0]]]}, r"Etilde\[0\]\[0\]"),
        ({"n_modes": 2.0}, "n_modes must be an integer"),
        ({"gamma": "big"}, "gamma must be a number"),
    ], ids=["missing-key", "bad-pair", "not-rows", "bad-number", "float-n_modes", "string-gamma"])
    def test_malformed_json_names_the_entry(self, paper_model, edit, message):
        import json

        d = json.loads(paper_model.to_json())
        d.update(edit)
        d = {k: v for k, v in d.items() if v is not None}
        with pytest.raises(ValueError, match=message):
            jc.SystemModel.from_json(json.dumps(d))


class TestRecordJson:
    """Each record serializes under its own field names, in field order."""

    def test_keys_are_fields(self, paper_model, paper_certificate):
        import json
        from dataclasses import fields

        rep = jc.verify_sector(lambda u: np.sin(u), gamma=0.5, grid=jc.GridSpec(points_re=5, points_im=5))
        est = jc.DecayEstimate(c1=1.0, c2=2.0, fit_residual=0.0, t_window=(0.0, 1.0))
        for record in (paper_model, paper_certificate, rep, est, jc.reference_params()):
            d = json.loads(record.to_json())
            assert list(d) == [f.name for f in fields(record)]
        assert list(json.loads(rep.to_json())["grid_spec"]) == [f.name for f in fields(jc.GridSpec)]

    def test_complex_values_as_pairs(self, paper_certificate):
        import json

        rep = jc.SectorReport(gamma_tested=1.0, delta1=0.0, delta2=0.0, worst_margin=0.5,
                              worst_point=complex(-1.5, 0.25), passed=True, grid_spec=jc.GridSpec())
        assert json.loads(rep.to_json())["worst_point"] == [-1.5, 0.25]
        d = json.loads(paper_certificate.to_json())
        assert d["eigenvalues_F"] == [[z.real, z.imag] for z in paper_certificate.eigenvalues_F]
        m = jc.SystemModel(n_modes=1, M=[[1, 2j], [-2j, 1]], N=np.zeros((2, 2)),
                           Etilde=[[0.5, -0.5j]], gamma=1.0)
        d = json.loads(m.to_json())
        assert d["M"] == [[[1.0, 0.0], [0.0, 2.0]], [[0.0, -2.0], [1.0, 0.0]]]
        assert d["Etilde"] == [[[0.5, 0.0], [0.0, -0.5]]]
