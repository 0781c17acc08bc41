"""Laminate stiffness tests, anchored on independent numeric oracles."""

import math

import numpy as np
import pytest

from maxentnn import (
    InvalidMaterialError,
    LayupParseError,
    Layup,
    PlyProperties,
    T700_PLY,
    abd_matrices,
    parse_layup,
    ply_stiffness_q12,
    rotate_to_laminate_axes,
    standard_layups,
    stiffness_feature_row,
)
from maxentnn.laminate import MAX_PLIES, STANDARD_LAYUP_NOTATIONS, STIFFNESS_COLUMNS


def rotate_stiffness_tensor(q: np.ndarray, angle_deg: float) -> np.ndarray:
    """Oracle: expand the contracted matrix to a full fourth-order tensor,
    rotate it index by index, and contract back."""
    pairs = {0: (0, 0), 1: (1, 1), 2: (0, 1)}
    c = np.zeros((2, 2, 2, 2))
    for a, (i, j) in pairs.items():
        for b, (k, l) in pairs.items():
            val = q[a, b]
            for ii, jj in ((i, j), (j, i)):
                for kk, ll in ((k, l), (l, k)):
                    c[ii, jj, kk, ll] = val
    th = math.radians(angle_deg)
    r = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    cr = np.einsum("ip,jq,kr,ls,pqrs->ijkl", r, r, r, r, c)
    out = np.zeros((3, 3))
    for a, (i, j) in pairs.items():
        for b, (k, l) in pairs.items():
            out[a, b] = cr[i, j, k, l]
    return out


def abd_naive(layup: Layup):
    """Oracle: plain-Python summation with interface heights recomputed
    from scratch for every ply, no shared factoring with the implementation."""
    q12 = ply_stiffness_q12(layup.ply)
    n = layup.n_plies
    t = layup.ply.thickness
    a = [[0.0] * 3 for _ in range(3)]
    b = [[0.0] * 3 for _ in range(3)]
    d = [[0.0] * 3 for _ in range(3)]
    for k in range(1, n + 1):
        z_lo = -n * t / 2.0 + (k - 1) * t
        z_hi = -n * t / 2.0 + k * t
        qbar = rotate_to_laminate_axes(q12, layup.angles[k - 1])
        for i in range(3):
            for j in range(3):
                a[i][j] += qbar[i, j] * (z_hi - z_lo)
                b[i][j] += 0.5 * qbar[i, j] * (z_hi**2 - z_lo**2)
                d[i][j] += qbar[i, j] * (z_hi**3 - z_lo**3) / 3.0
    return np.array(a), np.array(b), np.array(d)


class TestPlyStiffness:
    def test_isotropic_limit(self):
        e, nu = 70.0, 0.3
        ply = PlyProperties(e1=e, e2=e, nu12=nu, g12=e / (2 * (1 + nu)), thickness=1.0)
        q = ply_stiffness_q12(ply)
        assert q[0, 0] == pytest.approx(e / (1 - nu**2), rel=1e-12)
        assert q[1, 1] == pytest.approx(e / (1 - nu**2), rel=1e-12)
        assert q[0, 1] == pytest.approx(nu * e / (1 - nu**2), rel=1e-12)

    def test_inverse_of_compliance(self):
        q = ply_stiffness_q12(T700_PLY)
        e1, e2, nu12, g12 = T700_PLY.e1, T700_PLY.e2, T700_PLY.nu12, T700_PLY.g12
        s = np.array([
            [1.0 / e1, -nu12 / e1, 0.0],
            [-nu12 / e1, 1.0 / e2, 0.0],
            [0.0, 0.0, 1.0 / g12],
        ])
        np.testing.assert_allclose(q @ s, np.eye(3), atol=1e-12)

    def test_decoupled_when_poisson_is_negligible(self):
        ply = PlyProperties(e1=100.0, e2=10.0, nu12=1e-12, g12=5.0, thickness=0.1)
        q = ply_stiffness_q12(ply)
        assert q[0, 0] == pytest.approx(100.0, rel=1e-9)
        assert q[1, 1] == pytest.approx(10.0, rel=1e-9)
        assert q[2, 2] == 5.0
        assert abs(q[0, 1]) < 1e-10

    def test_invalid_material_rejected(self):
        with pytest.raises(InvalidMaterialError):
            PlyProperties(e1=-1.0, e2=8.4, nu12=0.3, g12=6.2, thickness=0.132)
        with pytest.raises(InvalidMaterialError):
            PlyProperties(e1=137.5, e2=8.4, nu12=0.6, g12=6.2, thickness=0.132)

    def test_numpy_scalar_constants_are_stored_as_python_floats(self):
        ply = PlyProperties(e1=np.float32(137.5), e2=np.float64(8.4), nu12=np.float32(0.309),
                            g12=np.int64(6), thickness=0.132)
        assert all(type(getattr(ply, f)) is float for f in ("e1", "e2", "nu12", "g12", "thickness"))
        assert ply == PlyProperties(e1=137.5, e2=8.4, nu12=float(np.float32(0.309)), g12=6.0,
                                    thickness=0.132)
        for bad in ({"e1": True}, {"e1": np.bool_(True)}, {"nu12": np.bool_(True)}, {"nu12": "0.3"}):
            with pytest.raises(InvalidMaterialError):
                PlyProperties(**{"e1": 137.5, "e2": 8.4, "nu12": 0.309, "g12": 6.2,
                                 "thickness": 0.132, **bad})

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.longdouble])
    def test_every_numpy_float_dtype_is_stored_as_a_python_float(self, dtype):
        constants = {"e1": 137.5, "e2": 8.4, "nu12": 0.309, "g12": 6.2, "thickness": 0.132}
        ply = PlyProperties(**{f: dtype(v) for f, v in constants.items()})
        assert all(type(getattr(ply, f)) is float for f in constants)
        assert ply == PlyProperties(**{f: float(dtype(v)) for f, v in constants.items()})

    @pytest.mark.parametrize("name", ["e1", "e2", "nu12", "g12", "thickness"])
    def test_a_numpy_bool_constant_is_refused(self, name):
        constants = {"e1": 137.5, "e2": 8.4, "nu12": 0.309, "g12": 6.2, "thickness": 0.132}
        with pytest.raises(InvalidMaterialError):
            PlyProperties(**{**constants, name: np.bool_(True)})


class TestRotation:
    def test_zero_angle_is_identity(self):
        q = ply_stiffness_q12(T700_PLY)
        np.testing.assert_array_equal(rotate_to_laminate_axes(q, 0.0), q)

    def test_ninety_degrees_swaps_axes(self):
        q = ply_stiffness_q12(T700_PLY)
        qr = rotate_to_laminate_axes(q, 90.0)
        assert qr[0, 0] == pytest.approx(q[1, 1], rel=1e-12)
        assert qr[1, 1] == pytest.approx(q[0, 0], rel=1e-12)
        assert abs(qr[0, 2]) < 1e-12 * q[0, 0]
        assert abs(qr[1, 2]) < 1e-12 * q[0, 0]

    def test_periodicity_and_mirror(self):
        q = ply_stiffness_q12(T700_PLY)
        for angle in (17.0, 45.0, 63.5):
            plus = rotate_to_laminate_axes(q, angle)
            np.testing.assert_allclose(
                rotate_to_laminate_axes(q, angle + 180.0), plus, rtol=1e-9, atol=1e-9
            )
            minus = rotate_to_laminate_axes(q, -angle)
            flipped = plus.copy()
            flipped[0, 2] = -flipped[0, 2]
            flipped[2, 0] = -flipped[2, 0]
            flipped[1, 2] = -flipped[1, 2]
            flipped[2, 1] = -flipped[2, 1]
            np.testing.assert_allclose(minus, flipped, rtol=1e-9, atol=1e-9)

    def test_45_degrees_matches_tensor_oracle(self):
        q = ply_stiffness_q12(T700_PLY)
        oracle = rotate_stiffness_tensor(q, 45.0)
        np.testing.assert_allclose(
            rotate_to_laminate_axes(q, 45.0), oracle, rtol=1e-9
        )

    def test_arbitrary_angles_match_tensor_oracle(self):
        q = ply_stiffness_q12(T700_PLY)
        for angle in (-71.0, -30.0, 12.0, 57.3, 89.0):
            np.testing.assert_allclose(
                rotate_to_laminate_axes(q, angle),
                rotate_stiffness_tensor(q, angle),
                rtol=1e-9, atol=1e-9,
            )


class TestAbdMatrices:
    def test_single_ply(self):
        ply = T700_PLY
        layup = Layup((0.0,), ply)
        abd = abd_matrices(layup)
        q = ply_stiffness_q12(ply)
        t = ply.thickness
        np.testing.assert_allclose(abd.a, q * t, rtol=1e-12)
        np.testing.assert_allclose(abd.b, np.zeros((3, 3)), atol=1e-15)
        np.testing.assert_allclose(abd.d, q * t**3 / 12.0, rtol=1e-12)

    def test_symmetric_layup_has_no_coupling(self):
        abd = abd_matrices(standard_layups()[1])
        assert np.abs(abd.b).max() <= 1e-9 * np.abs(abd.a).max()

    @pytest.mark.parametrize("layup_id", [1, 2])
    def test_matches_naive_summation_oracle(self, layup_id):
        layup = standard_layups()[layup_id]
        abd = abd_matrices(layup)
        a, b, d = abd_naive(layup)
        scale_a, scale_d = np.abs(a).max(), np.abs(d).max()
        # absolute floors cover entries that are pure cancellation noise
        np.testing.assert_allclose(abd.a, a, rtol=1e-9, atol=1e-12 * scale_a)
        np.testing.assert_allclose(abd.b, b, atol=1e-9 * scale_a)
        np.testing.assert_allclose(abd.d, d, rtol=1e-9, atol=1e-12 * scale_d)

    def test_blocks_are_symmetric(self):
        for layup in standard_layups().values():
            abd = abd_matrices(layup)
            for block in (abd.a, abd.b, abd.d):
                np.testing.assert_allclose(block, block.T, rtol=1e-12, atol=1e-12)

    def test_a_and_d_positive_definite(self):
        for layup in standard_layups().values():
            abd = abd_matrices(layup)
            assert np.all(np.linalg.eigvalsh(abd.a) > 0)
            assert np.all(np.linalg.eigvalsh(abd.d) > 0)

    def test_thickness_scaling(self):
        base = standard_layups()[2]
        abd1 = abd_matrices(base)
        for factor in (0.5, 2.0):
            ply = PlyProperties(
                e1=base.ply.e1, e2=base.ply.e2, nu12=base.ply.nu12,
                g12=base.ply.g12, thickness=base.ply.thickness * factor,
            )
            abd2 = abd_matrices(Layup(base.angles, ply))
            np.testing.assert_allclose(abd2.a, factor * abd1.a, rtol=1e-9)
            np.testing.assert_allclose(abd2.d, factor**3 * abd1.d, rtol=1e-9)

    def test_extensional_block_ignores_stacking_order(self):
        angles = (90.0, 90.0, 45.0, -45.0, 0.0, 30.0)
        shuffled = (30.0, 0.0, -45.0, 90.0, 45.0, 90.0)
        a1 = abd_matrices(Layup(angles, T700_PLY)).a
        a2 = abd_matrices(Layup(shuffled, T700_PLY)).a
        np.testing.assert_allclose(a1, a2, rtol=1e-9)
        # bending does depend on the order
        d1 = abd_matrices(Layup(angles, T700_PLY)).d
        d2 = abd_matrices(Layup(shuffled, T700_PLY)).d
        assert not np.allclose(d1, d2, rtol=1e-3)

    def test_frame_change_consistency_of_a(self):
        # rotating every ply by the same angle must rotate A as a tensor
        layup = standard_layups()[2]
        phi = 28.0
        rotated = Layup(tuple(a + phi for a in layup.angles), layup.ply)
        a_rotated = abd_matrices(rotated).a
        oracle = rotate_stiffness_tensor(abd_matrices(layup).a, phi)
        np.testing.assert_allclose(a_rotated, oracle, rtol=1e-9)


class TestFeatureRow:
    def test_column_names(self):
        assert STIFFNESS_COLUMNS[:6] == ("A_11", "A_12", "A_16", "A_22", "A_26", "A_66")
        assert STIFFNESS_COLUMNS[6] == "B_11"
        assert STIFFNESS_COLUMNS[-1] == "D_66"
        assert len(STIFFNESS_COLUMNS) == 18

    def test_symmetric_layup_zeros_the_coupling_terms(self):
        row = stiffness_feature_row(abd_matrices(standard_layups()[1]))
        assert np.abs(row[6:12]).max() <= 1e-9 * np.abs(row[:6]).max()

    def test_single_ply_entries(self):
        abd = abd_matrices(Layup((0.0,), T700_PLY))
        row = stiffness_feature_row(abd)
        q = ply_stiffness_q12(T700_PLY)
        t = T700_PLY.thickness
        assert row[0] == pytest.approx(q[0, 0] * t, rel=1e-12)
        assert row[12] == pytest.approx(q[0, 0] * t**3 / 12.0, rel=1e-12)

    def test_row_flattens_the_blocks(self):
        abd = abd_matrices(standard_layups()[1])
        row = stiffness_feature_row(abd)
        expected = [abd.a[0, 0], abd.a[0, 1], abd.a[0, 2], abd.a[1, 1], abd.a[1, 2], abd.a[2, 2]]
        np.testing.assert_array_equal(row[:6], expected)


class TestLayupParser:
    def test_coupon_stack_expansions(self):
        one = parse_layup(STANDARD_LAYUP_NOTATIONS[1])
        assert one.angles == (90, 90, 45, -45, 90, 90, 45, -45,
                              -45, 45, 90, 90, -45, 45, 90, 90)
        two = parse_layup(STANDARD_LAYUP_NOTATIONS[2])
        assert two.angles == (0, 90, 90, 45, -45, 90, 90, -45, 45, 90, 90, 0)

    def test_single_ply(self):
        assert parse_layup("[0]").angles == (0.0,)

    def test_group_repeat_without_symmetry(self):
        assert parse_layup("[0/90]_3").angles == (0, 90, 0, 90, 0, 90)

    def test_symmetry_without_repeat(self):
        assert parse_layup("[30/-30]S").angles == (30, -30, -30, 30)

    def test_unclosed_bracket_reports_position(self):
        with pytest.raises(LayupParseError) as err:
            parse_layup("[bad")
        assert err.value.position >= 0

    def test_bad_token_reports_position(self):
        with pytest.raises(LayupParseError) as err:
            parse_layup("[0/x5/90]")
        assert err.value.position == 3

    def test_missing_bracket(self):
        with pytest.raises(LayupParseError):
            parse_layup("0/90")

    def test_ply_count_at_the_cap_parses(self):
        assert parse_layup(f"[0_{MAX_PLIES // 4}/90_{MAX_PLIES // 4}]S").n_plies == MAX_PLIES

    # the count is known before a ply list is built: the first notations go
    # past the cap through the ply repeat, the mirror, the group count and all
    # three, and a list of the huge counts' size could not even be requested
    @pytest.mark.parametrize("notation", [
        f"[0_{MAX_PLIES + 1}]",
        f"[0_{MAX_PLIES // 2}/90]S",
        f"[0/90]_{MAX_PLIES // 2 + 1}",
        f"[0_2/90]_{MAX_PLIES // 6 + 1}S",
        f"[0_{10**30}]",
        f"[0]_{10**30}",
        f"[0_{10**15}/90]_{10**15}S",
    ])
    def test_too_many_plies_is_a_parse_error(self, notation):
        with pytest.raises(LayupParseError, match="plies"):
            parse_layup(notation)
