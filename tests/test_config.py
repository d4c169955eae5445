"""Run-configuration parsing: units, schema validation, diagnostics."""

import math
from dataclasses import fields, is_dataclass

import pytest

from seqlab.config import RunConfig, load_config, parse_config
from seqlab.units import mhz, to_mhz


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg.seed == 12345
    assert cfg.scan.points == 201
    assert cfg.scan.t_mu1 == 100e-9
    assert cfg.scan.omega_mu2 == mhz(12.5)
    assert cfg.scan.backend == "analytic"
    assert cfg.rabi.t_max == 160e-9
    assert cfg.readout.eta_1 == 1.0
    assert cfg.interaction.v_int == 0.0 and cfg.interaction.p2 == 0.0
    assert cfg.shots.n_trials == 100_000
    assert cfg.g2.mode == "antibunched"
    assert cfg.output.format == "csv"
    assert parse_config("") == RunConfig()


def test_time_units_convert_to_seconds():
    cfg = parse_config(
        "scan.t_mu1 = 100ns\n"
        "scan.t_mu2 = 1.5us\n"
        "fit.t_total_hint = 1.5e-7s\n"
        "scan.gap = 0.001ms\n"
    )
    assert cfg.scan.t_mu1 == 100.0 * 1e-9
    assert cfg.scan.t_mu2 == 1.5 * 1e-6
    assert cfg.fit.t_total_hint == 1.5e-7
    assert cfg.scan.gap == 0.001 * 1e-3


def test_drive_frequencies_are_angular():
    cfg = parse_config("scan.omega_mu2 = 7.5MHz\nrabi.detuning2 = -0.4MHz\n")
    # bit-exact against the shared conversion helper
    assert cfg.scan.omega_mu2 == mhz(7.5)
    assert cfg.rabi.detuning2 == mhz(-0.4)


def test_decay_rates_are_plain_not_angular():
    cfg = parse_config("dissipation.gamma_deph_2 = 0.1MHz\n")
    assert cfg.dissipation.gamma_deph_2 == 0.1 * 1e6
    assert cfg.dissipation.gamma_deph_2 != mhz(0.1)


def test_interaction_shift_is_angular():
    cfg = parse_config("interaction.v_int = 0.2MHz\n")
    assert cfg.interaction.v_int == mhz(0.2)


def test_top_level_seed():
    assert parse_config("seed = 777\n").seed == 777


def test_comments_and_blank_lines():
    cfg = parse_config(
        "# full-line comment\n"
        "\n"
        "scan.points = 11  # inline comment\n"
        "   \n"
    )
    assert cfg.scan.points == 11


def test_last_assignment_wins():
    cfg = parse_config("scan.points = 11\nscan.points = 21\n")
    assert cfg.scan.points == 21


def test_unknown_key_names_the_line():
    text = "# header\nscan.points = 11\nscan.bogus = 3\n"
    with pytest.raises(ValueError, match=r"config line 3: unknown key 'scan\.bogus'"):
        parse_config(text)


def test_missing_equals_sign():
    with pytest.raises(ValueError, match="config line 1: expected key = value"):
        parse_config("scan.points 11\n")


def test_bad_float_and_integer():
    with pytest.raises(ValueError, match="config line 1: scan.i0: bad number"):
        parse_config("scan.i0 = abc\n")
    with pytest.raises(ValueError, match="bad integer"):
        parse_config("scan.points = 3.5\n")


def test_bad_unit_suffix():
    with pytest.raises(ValueError, match="unit suffix"):
        parse_config("scan.t_mu1 = 10kHz\n")
    with pytest.raises(ValueError, match="unit suffix"):
        parse_config("scan.omega_mu2 = 5\n")


def test_bad_choice_lists_alternatives():
    with pytest.raises(ValueError, match="expected one of"):
        parse_config("scan.backend = euler\n")


def test_non_finite_values_rejected():
    with pytest.raises(ValueError, match="must be finite"):
        parse_config("scan.i0 = inf\n")
    with pytest.raises(ValueError, match="must be finite"):
        parse_config("shots.mean_photons = nan\n")
    for text in ("interaction.v_int = infMHz", "interaction.v_int = nanMHz", "rabi.t_max = infns"):
        with pytest.raises(ValueError, match="must be finite"):
            parse_config(text + "\n")


@pytest.mark.parametrize(
    "text, match",
    [
        ("scan.points = 200", "odd integer"),
        ("scan.points = 1", "odd integer"),
        ("rabi.points = 1", ">= 2"),
        ("scan.t_mu1 = 0ns", "must be positive"),
        ("scan.t_mu1 = 1e-300ns", r"pi/\(2 t_mu1\) finite"),
        ("rabi.t_mu1 = 0ns", "must be positive"),
        ("rabi.t_mu1 = 1e-300ns", r"pi/\(2 t_mu1\) finite"),
        ("scan.span = 0MHz", "must be positive"),
        ("scan.i0 = 0", "must be positive"),
        ("scan.gap = -1ns", "non-negative"),
        ("scan.omega_mu2 = -0.5MHz", "non-negative"),
        ("rabi.omega_mu2 = -0.5MHz", "non-negative"),
        ("rabi.t_max = 0ns", "must be positive"),
        ("rabi.t_max = -50ns", "must be positive"),
        ("dissipation.gamma_decay_1 = -0.1MHz", "non-negative"),
        ("readout.eta_2 = 1.5", r"\[0, 1\]"),
        ("readout.deph = -1MHz", "non-negative"),
        ("interaction.p2 = 1.0", r"\[0, 1\)"),
        ("interaction.p2 = -0.1", r"\[0, 1\)"),
        ("shots.n_trials = 0", "positive"),
        ("shots.dark_rate = 1.0", r"\[0, 1\)"),
        ("shots.mean_photons = -0.5", "non-negative"),
        ("g2.bin = 4", "1, 2 or 3"),
        ("fit.t_total_hint = -1ns", "non-negative"),
        ("seed = -1", "non-negative"),
    ],
)
def test_validation_rules(text, match):
    key = text.split(" = ")[0]
    with pytest.raises(ValueError, match=match) as info:
        parse_config(text + "\n")
    assert str(info.value).startswith(f"config line 1: {key}: ")


def test_out_of_range_value_names_its_line_even_if_overridden():
    text = "# header\nscan.points = 11\nscan.points = 200\nscan.points = 21\n"
    with pytest.raises(ValueError, match=r"^config line 3: scan\.points: must be an odd integer >= 3$"):
        parse_config(text)


def _schema_keys():
    """(dotted key, field) for every config key, from RunConfig's fields."""
    for top in fields(RunConfig):
        if is_dataclass(top.default_factory):
            for f in fields(top.default_factory):
                yield f"{top.name}.{f.name}", f
        else:
            yield top.name, top


_ANGULAR = ("omega_mu2", "span", "detuning2", "v_int")


def _is_rate(name: str) -> bool:
    return name.startswith("gamma_") or name == "deph"


def _written(name: str, value) -> str:
    """A default written back in the unit the README gives its key."""
    if isinstance(value, (str, int)):
        return str(value)
    if name.startswith("t_") or name == "gap":
        return f"{value!r}s"
    if _is_rate(name):
        return f"{value / 1e6!r}MHz"
    if name in _ANGULAR:
        return f"{to_mhz(value)!r}MHz"
    return repr(value)


@pytest.mark.parametrize("key, f", [pytest.param(k, f, id=k) for k, f in _schema_keys()])
def test_every_default_lies_in_its_bound_and_reads_back(key, f):
    bound = f.metadata["bound"]
    assert bound is None or bound[0](f.default), bound[1]
    section, _, name = key.rpartition(".")

    def read(text):
        cfg = parse_config(f"{key} = {text}\n")
        return getattr(getattr(cfg, section) if section else cfg, name)

    value = read(_written(name, f.default))
    assert value == f.default and type(value) is type(f.default)
    if _is_rate(name) or name in _ANGULAR:
        # a non-zero value tells a plain rate from an angular frequency
        assert read("1MHz") == (1e6 if _is_rate(name) else mhz(1.0))


def test_all_listed_choices_accepted():
    cfg = parse_config(
        "scan.backend = lindblad\n"
        "g2.mode = mixture\n"
        "output.format = json\n"
    )
    assert cfg.scan.backend == "lindblad"
    assert cfg.g2.mode == "mixture"
    assert cfg.output.format == "json"
    assert parse_config("scan.backend = unitary\n").scan.backend == "unitary"
    assert parse_config("g2.mode = coherent\n").g2.mode == "coherent"


def test_zero_mu2_time_is_allowed():
    # a Ramsey scan without the middle drive is a legal degenerate case
    cfg = parse_config("scan.t_mu2 = 0ns\n")
    assert cfg.scan.t_mu2 == 0.0


def test_load_config_reads_a_file(tmp_path):
    path = tmp_path / "run.cfg"
    text = (
        "# two-atom run\n"
        "scan.span = 7MHz\n"
        "scan.points = 281\n"
        "interaction.v_int = 0.1MHz\n"
        "interaction.p2 = 0.3\n"
        "seed = 99\n"
    )
    path.write_text(text, encoding="utf-8")
    cfg = load_config(path)
    assert cfg == parse_config(text)
    assert cfg.scan.span == mhz(7.0)
    assert cfg.scan.points == 281
    assert cfg.interaction.p2 == 0.3
    assert cfg.seed == 99


def test_angular_round_trip_is_consistent():
    # the stored angular value divided by 2*pi*1e6 returns the written MHz number
    cfg = parse_config("scan.omega_mu2 = 12.5MHz\n")
    assert cfg.scan.omega_mu2 / (2.0 * math.pi * 1e6) == pytest.approx(12.5, abs=1e-12)
