import cmath
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import trimoduli
from trimoduli import cli, concomitants, form_problem, reflection_group, slocc_normalize
from trimoduli.qutrit_state import (
    State,
    apply_local,
    normal_form_state,
    random_local_transform,
    random_state,
    read_state,
    write_state,
)

PRODUCT_111 = np.zeros((3, 3, 3), dtype=complex)
PRODUCT_111[0, 0, 0] = 1.0
W_STATE = np.zeros((3, 3, 3), dtype=complex)
W_STATE[0, 0, 1] = W_STATE[0, 1, 0] = W_STATE[1, 0, 0] = 1.0


def near_null_cone(base, d, k) -> State:
    """A null-cone state plus d times a seeded random state, at unit norm."""
    s = State(base + d * random_state(k).amplitudes)
    return s.scaled(1.0 / math.sqrt(s.norm_sq))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_verify(capsys):
    code, out, _ = run_cli(capsys, "group-verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "group-verify"
    assert payload["K_order"] == 648
    assert payload["H_order"] == 1296
    assert payload["K_unitary"] is True


def test_invariants_of_normal_form_file(tmp_path, capsys):
    path = tmp_path / "n100.json"
    write_state(path, normal_form_state((1, 0, 0)))
    code, out, _ = run_cli(capsys, "invariants", str(path))
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["I6"][0] - 1) < 1e-12 and abs(payload["I6"][1]) < 1e-12
    assert abs(payload["I9"][0]) < 1e-12
    assert abs(payload["I12"][0] - 1) < 1e-12
    assert payload["semistable"] is True
    assert payload["projective"][0] == [1.0, 0.0]


def test_solve_hessian_vertices(capsys):
    code, out, _ = run_cli(capsys, "solve", "--a", "12", "--b", "0", "--c", "0",
                           "--i9", "-2")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 27
    assert payload["polytope_label"] == "hessian-vertices"
    assert payload["stabilizer_label"] == "G4"
    assert payload["raw_count"] == 54


def test_solve_full_listing(capsys):
    code, out, _ = run_cli(capsys, "solve", "--a", "0", "--b", "0", "--c", "0",
                           "--i9", "0", "--full")
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 1
    assert payload["triples"] == [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]


def test_solve_full_listing_is_bitwise(capsys):
    # 17 significant digits round-trip every double; parse_int keeps "-0"
    # a negative zero
    code, out, _ = run_cli(capsys, "solve", "--a", "1+2j", "--b", "0.5", "--c", "0", "--full")
    assert code == 0
    payload = json.loads(out, parse_int=float)
    got = [[complex(*z) for z in t] for t in payload["triples"]]
    sol = form_problem.solve(form_problem.FormProblemInput(1 + 2j, 0.5, 0))
    assert len(got) == sol.filtered_count == payload["count"]
    assert np.array_equal(np.array(got).view(np.uint64), sol.triples.view(np.uint64))


def test_solve_solves_once(capsys, monkeypatch):
    calls = []
    solve = form_problem.solve

    def counted(inp):
        calls.append(inp)
        return solve(inp)

    monkeypatch.setattr(form_problem, "solve", counted)
    code, out, _ = run_cli(capsys, "solve", "--a", "1", "--b", "1", "--c", "1")
    assert code == 0
    assert json.loads(out)["count"] == 72
    assert len(calls) == 1


def test_classify_never_calibrates(tmp_path):
    # a fresh interpreter: the runtime path uses the pinned constants only
    path = tmp_path / "state.json"
    write_state(path, random_state(3))
    code = ("import sys\n"
            "from trimoduli import cli, concomitants\n"
            "assert cli.main(['classify', sys.argv[1]]) == 0\n"
            "assert concomitants.calibration.cache_info().currsize == 0\n")
    src = str(Path(trimoduli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_orbit_command(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--u", "1", "--v", "-1", "--w", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_size"] == 27
    assert payload["stabilizer_order"] == 24
    assert payload["stabilizer_label"] == "G4"


def test_normal_form_pipeline(tmp_path, capsys):
    s = apply_local(normal_form_state((1.2, 0.3 - 0.4j, -0.8 + 0.1j)),
                    random_local_transform(77))
    path = tmp_path / "state.json"
    write_state(path, s)
    code, out, _ = run_cli(capsys, "normal-form", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "converged"
    assert payload["verdict"]["ok"] is True
    assert payload["candidate_count"] == 648
    # an empty sample is an empty (0, 3) array, printed as []
    code, out, _ = run_cli(capsys, "normal-form", str(path), "--max-candidates", "0")
    assert code == 0 and '"candidates_sample": [], ' in out


def test_invariants_and_normal_form_agree_on_semistability(tmp_path, capsys):
    # near the null cone, the flag of `invariants` is the null-cone test of
    # the filtering iteration: one vanishing rule decides both
    path = tmp_path / "state.json"
    disagree = []
    for base in (W_STATE, PRODUCT_111):
        for d in 10.0 ** -np.arange(2, 13):
            for k in range(20):
                write_state(path, near_null_cone(base, d, k))
                code, out, _ = run_cli(capsys, "invariants", str(path))
                assert code == 0
                _, trace = slocc_normalize.normalize_slocc(read_state(path), max_iter=0)
                if json.loads(out)["semistable"] != (trace.status != slocc_normalize.UNSTABLE):
                    disagree.append((d, k))
    assert disagree == []


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_invariants_and_bounds_computed_once_per_command(tmp_path, capsys, monkeypatch):
    # the bounds are computed once where a decision needs them (near the
    # null cone) and not at all where I6 stands clear of them
    generic = apply_local(normal_form_state((1.2, 0.3 - 0.4j, -0.8 + 0.1j)),
                          random_local_transform(77))
    for state, want_bounds in ((generic, 0), (near_null_cone(W_STATE, 1e-4, 5), 1)):
        path = tmp_path / "state.json"
        write_state(path, state)
        for command, want_invariants in (("invariants", 1), ("normal-form", 2)):
            run_cli(capsys, command, str(path))  # warm
            invariants = _count_calls(monkeypatch, concomitants, "invariants")
            bounds = _count_calls(monkeypatch, concomitants, "invariant_bounds")
            code, out, _ = run_cli(capsys, command, str(path))
            monkeypatch.undo()
            assert code == 0, command
            payload = json.loads(out)
            assert payload.get("semistable", payload.get("status") == "converged") is True
            assert (len(invariants), len(bounds)) == (want_invariants, want_bounds), command


def test_normal_form_max_iterations_names_the_margin(tmp_path, capsys):
    # below 2**-1024 the power of two that brings a state to unit size is
    # not a float; at 1e-318 the W-state noise underflows to zero, so the
    # scaled inputs are a random state
    path = tmp_path / "state.json"
    for state in (near_null_cone(W_STATE, 1e-8, 5),
                  random_state(7).scaled(1e-310), random_state(7).scaled(1e-318)):
        write_state(path, state)
        code, out, err = run_cli(capsys, "normal-form", str(path), "--max-iter", "3")
        assert code == cli.EXIT_NUMERICAL
        payload = json.loads(out)
        assert payload["status"] == "max-iterations" and payload["verdict"] is None
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "Traceback" not in err
        assert lines[0].startswith("numerical failure: ")
        assert "after 3 steps" in lines[0] and "leading invariant I" in lines[0]


def test_normal_form_beyond_float_range_names_the_invariant(tmp_path, capsys):
    # the iteration runs at unit size; the input's invariants, scaled back,
    # leave the float range: I18 first at scale 1e20, I6 and the squared norm
    # too at 1e160 and 1e200
    path = tmp_path / "state.json"
    for scale, name in ((1e20, "I18"), (1e160, "I6"), (1e200, "I6")):
        write_state(path, random_state(7).scaled(scale))
        code, out, err = run_cli(capsys, "normal-form", str(path))
        assert code == cli.EXIT_NUMERICAL and out == ""
        assert err.splitlines() == [f"numerical failure: input invariant {name} overflows"]


def test_normal_form_beyond_float_range_on_the_null_cone(tmp_path, capsys):
    # W with amplitudes 1e200: its invariants are zero, so the first value
    # to leave the float range is the squared norm scaled back from unit size
    a = np.zeros((3, 3, 3), dtype=complex)
    a[0, 0, 1] = a[0, 1, 0] = a[1, 0, 0] = 1e200
    path = tmp_path / "w.json"
    write_state(path, State(a))
    code, out, err = run_cli(capsys, "normal-form", str(path))
    assert code == cli.EXIT_NUMERICAL and out == ""
    assert err.splitlines() == ["numerical failure: initial_norm_sq leaves the float range"]


def test_classify_matches_solve(tmp_path, capsys):
    from trimoduli.qutrit_state import random_state
    from trimoduli import concomitants

    s = random_state(5)
    path = tmp_path / "state.json"
    write_state(path, s)
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 648
    inv = concomitants.invariants(s)
    code, out, _ = run_cli(capsys, "solve",
                           "--a", repr(inv.i6), "--b", repr(inv.i12),
                           "--c", repr(inv.i18), "--i9", repr(inv.i9))
    assert code == 0
    assert json.loads(out)["count"] == payload["count"]


def test_syzygies_command(capsys):
    code, out, _ = run_cli(capsys, "syzygies", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["residuals"]) == 12
    assert payload["max_residual"] < 1e-9


def test_random_roundtrip_and_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    code1, out1, _ = run_cli(capsys, "random", "--seed", "11", str(p1))
    code2, out2, _ = run_cli(capsys, "random", "--seed", "11", str(p2))
    assert code1 == code2 == 0
    assert p1.read_bytes() == p2.read_bytes()

    code1, out1, _ = run_cli(capsys, "invariants", str(p1))
    code2, out2, _ = run_cli(capsys, "invariants", str(p2))
    assert out1 == out2  # byte-identical reports


def test_emit_points(tmp_path, capsys):
    out_csv = tmp_path / "points.csv"
    code, out, _ = run_cli(capsys, "emit-points", "--case", "hessian-vertices",
                           str(out_csv))
    assert code == 0
    assert json.loads(out)["count"] == 27
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 28


def test_invalid_state_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, out, err = run_cli(capsys, "invariants", str(path))
    assert code == cli.EXIT_INVALID_INPUT
    assert "error" in err


def test_inconsistent_solve_input(capsys):
    code, _, err = run_cli(capsys, "solve", "--a", "12", "--b", "0", "--c", "0",
                           "--i9", "5")
    assert code == cli.EXIT_INVALID_INPUT
    assert "inconsistent" in err


def test_orbit_of_tiny_generic_triple(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--u=3e-13", "--v=1e-12", "--w=-7e-13j")
    assert code == 0
    assert json.loads(out)["orbit_size"] == 648


def test_orbit_beyond_float_range_is_a_numerical_failure(capsys):
    # the images of a triple near the float maximum leave the float range
    # when scaled back: one line, no points, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "orbit", "--u=1.7e308", "--v=1.7e308",
                                 "--w=1.7e308", "--full")
    assert code == cli.EXIT_NUMERICAL and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure: ")
    code, out, _ = run_cli(capsys, "orbit", "--u=1.7e308", "--v=0", "--w=0", "--full")
    assert code == 0 and json.loads(out)["orbit_size"] == 72


def test_complex_flag_parsing(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--u", "1+2j", "--v", "0.5-1j", "--w", "3")
    assert code == 0
    assert json.loads(out)["orbit_size"] == 648


def test_non_finite_complex_flags_rejected(capsys):
    commands = (("solve", {"--a": "1", "--b": "0", "--c": "0", "--i9": "0"}),
                ("orbit", {"--u": "1", "--v": "0", "--w": "0"}))
    for command, flags in commands:
        for flag in flags:
            for bad in ("nan", "inf", "-inf", "1+nanj", "infj"):
                argv = [command] + [f"{name}={bad if name == flag else value}"
                                    for name, value in flags.items()]
                with pytest.raises(SystemExit) as exit_info:
                    cli.main(argv)
                captured = capsys.readouterr()
                assert exit_info.value.code == cli.EXIT_INVALID_INPUT, argv
                assert captured.out == "", argv
                assert "not a finite complex number" in captured.err, argv
                assert "Traceback" not in captured.err, argv


@pytest.mark.parametrize("argv, message", [
    (["orbit", "--u", "abc", "--v", "0", "--w", "0"], "not a complex number: 'abc'"),
    (["orbit", "--u", "nan", "--v", "0", "--w", "0"], "not a finite complex number: 'nan'"),
    (["solve", "--a", "1", "--b", "0"], "the following arguments are required: --c"),
    (["bogus"], "invalid choice: 'bogus'"),
])
def test_argparse_rejections_exit_invalid_input(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == cli.EXIT_INVALID_INPUT
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert lines[0].startswith("usage: trimoduli")
    errors = [line for line in lines if "error:" in line]
    assert errors == [lines[-1]] and message in lines[-1]
    assert "Traceback" not in captured.err


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["orbit", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0, argv
        assert capsys.readouterr().out.startswith("usage: trimoduli"), argv


def test_normal_form_rejects_negative_limits(tmp_path, capsys):
    path = tmp_path / "state.json"
    write_state(path, random_state(3))
    for flag, value in (("--max-iter", "-1"), ("--max-candidates", "-1"),
                        ("--tol", "nan"), ("--tol", "inf")):
        code, out, err = run_cli(capsys, "normal-form", str(path), flag, value)
        assert code == cli.EXIT_INVALID_INPUT, flag
        assert out == "", flag
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), flag


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_17_digit_float_format():
    text = cli._fmt({"x": 0.1 + 0.2})
    assert text == '{"x": 0.30000000000000004}'
    assert cli._fmt(1 + 2j) == "[1, 2]"


def _rows_per_value(rows) -> str:
    """A complex (n, m) array as a list of rows of [re, im] pairs, each float
    formatted on its own with 17 significant digits."""
    return "[" + ", ".join(
        "[" + ", ".join(f"[{z.real:.17g}, {z.imag:.17g}]" for z in row) + "]"
        for row in rows.tolist()) + "]"


def test_complex_array_format_matches_per_value_oracle():
    top = 1.7976931348623157e308
    specials = [0.0, -0.0, 5e-324, -5e-324, top, -top, 1e16, 1e17, 9999999999999998.0,
                12345678901234567.0, 123456789012345680.0, 1.0, -3.0, 2.0 ** 52,
                0.1, 1 / 3, math.inf, -math.inf, math.nan]
    rng = np.random.default_rng(5)
    randoms = rng.standard_normal(6) * 10.0 ** rng.integers(-300, 300, 6)
    # each value in turn as a real and an imaginary part, in every column
    rows = np.resize(np.concatenate([specials, randoms]), (13, 6)).view(complex)
    # a full generic solution set (144 distinct floats in 3,888), the
    # 27-point set, and a column mixing 0.0 and -0.0, which compare equal
    # but must keep their own text: each distinct float is told by its bits
    generic = form_problem.solve(form_problem.FormProblemInput(1 + 2j, 0.5, 0)).triples
    hessian = form_problem.solve(form_problem.FormProblemInput(12, 0, 0, i9=-2)).triples
    signed = np.array([[0.0, -0.0j, 1], [-0.0, 0.0, complex(-0.0, -0.0)], [0j, 1, -0.0]])
    assert generic.shape == (648, 3) and hessian.shape == (27, 3)
    for array in (rows, rows[:, ::-1], rows[::3], rows[:1], rows[:, :1],
                  np.zeros((0, 3), dtype=complex), np.full((2, 3), -0.0 - 0.0j),
                  generic, hessian, signed, signed.T):
        assert cli._fmt(array) == _rows_per_value(array), array
    assert cli._fmt({"t": rows[:2]}) == '{"t": ' + _rows_per_value(rows[:2]) + "}"
    assert cli._fmt(np.zeros((0, 3), dtype=complex)) == "[]"
    assert "-0," in cli._fmt(signed) and "[0, " in cli._fmt(signed)


def test_full_listings_match_per_value_oracle(capsys):
    inputs = (("1+2j", "0.5", "0", None), ("12", "0", "0", "-2"), ("1", "1", "1", "0"),
              ("1", "0.25", "-0.125", "0"), ("0", "0", "0", "0"))
    for a, b, c, i9 in inputs:
        argv = ["solve", f"--a={a}", f"--b={b}", f"--c={c}", "--full"]
        argv += [] if i9 is None else [f"--i9={i9}"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        sol = form_problem.solve(form_problem.FormProblemInput(
            complex(a), complex(b), complex(c), None if i9 is None else complex(i9)))
        assert out.endswith('"triples": ' + _rows_per_value(sol.triples) + "}\n"), argv
    for u, v, w in (("0.3+0.1j", "-0.7j", "1.1"), ("1", "1", "0"), ("1", "0", "0"),
                    ("0", "1", "-1"), ("0.6-0.8j", "0", "0")):
        code, out, _ = run_cli(capsys, "orbit", f"--u={u}", f"--v={v}", f"--w={w}", "--full")
        assert code == 0, (u, v, w)
        points = reflection_group.orbit(reflection_group.group_k(),
                                        (complex(u), complex(v), complex(w)))
        assert out.endswith('"points": ' + _rows_per_value(points) + "}\n"), (u, v, w)


def test_null_cone_states(tmp_path, capsys):
    import numpy as np

    from trimoduli.qutrit_state import State

    product = np.zeros((3, 3, 3), dtype=complex)
    product[0, 0, 0] = 1.0
    w_state = np.zeros((3, 3, 3), dtype=complex)
    w_state[0, 0, 1] = w_state[0, 1, 0] = w_state[1, 0, 0] = 1.0
    rng = np.random.default_rng(12)
    legs = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    float_product = np.einsum("i,j,k->ijk", *legs)
    for name, amp in (("product", product), ("w", w_state), ("float-product", float_product)):
        path = tmp_path / f"{name}.json"
        write_state(path, State(amp))
        code, out, _ = run_cli(capsys, "invariants", str(path))
        assert code == 0, name
        payload = json.loads(out)
        assert payload["semistable"] is False and payload["projective"] is None, name
    for name in ("product", "w"):
        code, out, _ = run_cli(capsys, "normal-form", str(tmp_path / f"{name}.json"))
        assert code == 0, name
        assert json.loads(out)["status"] == "unstable", name


def test_missing_state_file(tmp_path, capsys):
    code, out, err = run_cli(capsys, "invariants", str(tmp_path / "absent.json"))
    assert code == cli.EXIT_INVALID_INPUT
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _state_file_with(tmp_path, entry):
    """A state file whose first amplitude is `entry` (raw JSON), the rest 0."""
    path = tmp_path / "odd.json"
    path.write_text('{"format": "trimoduli-state-v1", "amplitudes": ['
                    + ", ".join([entry] + ["[0, 0]"] * 26) + "]}")
    return path


def test_boolean_amplitude_rejected(tmp_path, capsys):
    # JSON true and false are not numbers, though Python bools are ints
    code, out, err = run_cli(capsys, "invariants", str(_state_file_with(tmp_path, "[true, false]")))
    assert code == cli.EXIT_INVALID_INPUT
    assert out == ""
    assert err == "error: amplitude components must be numbers\n"


def test_amplitude_beyond_float_range_rejected(tmp_path, capsys):
    code, out, err = run_cli(capsys, "invariants", str(_state_file_with(tmp_path, f"[{10 ** 400}, 0]")))
    assert code == cli.EXIT_INVALID_INPUT
    assert out == ""
    assert err == "error: non-finite or out-of-range amplitude in state file\n"


@pytest.mark.parametrize("argv", [("random", "--seed", "7"),
                                  ("emit-points", "--case", "hessian-vertices")])
def test_unwritable_output_path_exits_invalid_input(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "missing" / "out"))
    assert code == cli.EXIT_INVALID_INPUT
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err


def test_non_finite_invariant_is_a_numerical_failure(tmp_path, capsys):
    # at scale 1e30, I12 (degree 12) overflows to nan while I6 and I9 stay
    # finite; at 1e200 I6 does too.  classify refuses them as invariants does,
    # and prints no JSON with nan in it
    path = tmp_path / "huge.json"
    for scale, name in ((1e30, "I12"), (1e200, "I6")):
        write_state(path, random_state(7).scaled(scale))
        for command in ("invariants", "classify"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == cli.EXIT_NUMERICAL
            assert out == ""
            assert err.startswith(f"numerical failure: invariant {name} is not finite")
            assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_overflow_raises_no_warning(tmp_path, capsys):
    # at scale 1e200 the contractions of invariants and of the bounds
    # overflow; each path silences numpy's warnings once, so under "error"
    # every run still ends in its documented exit
    s = random_state(7).scaled(1e200)
    path = tmp_path / "huge.json"
    write_state(path, s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not all(map(cmath.isfinite, concomitants.invariants(s)))
        assert not all(map(math.isfinite, concomitants.invariant_bounds(s.amplitudes)))
        for command in ("invariants", "classify", "normal-form"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == cli.EXIT_NUMERICAL and out == "", command
            assert len(err.splitlines()) == 1 and err.startswith("numerical failure: ")


def test_classify_discriminant_out_of_float_range(tmp_path, capsys):
    # D = b^2 (b^3 - c^2)^4 has weighted degree 168: finite at unit scale,
    # beyond float range (reported as null) for states scaled by 1e3 or more
    # and below it (about 3e-434 at 1e-3) for states scaled by 1e-3 or less
    for scale in (1.0, 1e-3, 1e-12, 1e3, 1e8):
        path = tmp_path / f"scaled-{scale:g}.json"
        write_state(path, random_state(7).scaled(scale))
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == 0, scale
        payload = json.loads(out)
        assert payload["count"] == 648, scale
        if scale == 1.0:
            assert len(payload["D"]) == 2 and all(map(math.isfinite, payload["D"]))
            assert payload["D"] != [0.0, 0.0]
        else:
            assert payload["D"] is None, scale


def test_runtime_never_imports_scipy(tmp_path):
    # a fresh interpreter: the commands run on numpy alone
    path = tmp_path / "state.json"
    write_state(path, random_state(3))
    code = ("import sys\n"
            "from trimoduli import cli\n"
            "assert cli.main(['classify', sys.argv[1]]) == 0\n"
            "assert cli.main(['solve', '--a', '1', '--b', '0.5', '--c', '0.25']) == 0\n"
            "assert cli.main(['orbit', '--u', '1', '--v=-0.5', '--w', '0.25j']) == 0\n"
            "assert cli.main(['emit-points', '--case', 'hessian-vertices', sys.argv[2]]) == 0\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n")
    src = str(Path(trimoduli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "pts.csv")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
