import os
from pathlib import Path

import numpy as np
import pytest

from csv_bundle import convert_to_csv
from gmkit import data as data_mod
from gmkit.cli import load_experiment_config, main
from gmkit.core import _MODEL_FIELDS, ModelConfig
from gmkit.learning import random_balanced_assignment
from gmkit.modelio import load_model
from gmkit.protocol import ProtocolTranscript

CONFIG = """\
[model]
code_length = 8
sparsity = 2
num_groups = 4
within_weight = 1.0
max_outer_iters = 10
seed = 3

[data]
num_identities = 16
samples_per_identity = 2
dim = 16
noise_sigma = 0.05
impostor_fraction = 0.25
data_seed = 4

[sweep]
group_sizes = 2,4

[output]
out_dir = {out}
"""


@pytest.fixture()
def config_path(tmp_path):
    def write(out_dir, **tweaks):
        text = CONFIG.format(out=out_dir)
        for key, value in tweaks.items():
            text = "\n".join(
                f"{key} = {value}" if line.split("=")[0].strip() == key else line
                for line in text.splitlines()
            )
        path = tmp_path / "exp.ini"
        path.write_text(text)
        return str(path)

    return write


def read_tree(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = Path(full).read_bytes()
    return out


class TestConfig:
    def test_every_key_flows_into_its_field(self, tmp_path, config_path):
        cfg = load_experiment_config(config_path(tmp_path / "x"), {"within_weight": "2.5"})
        assert cfg.model == ModelConfig(code_length=8, sparsity=2, num_groups=4, within_weight=2.5,
                                        max_outer_iters=10, seed=3)
        assert cfg.synthetic == data_mod.SyntheticSpec(16, 2, 16, 0.05, 0.25, seed=4)
        assert (cfg.group_sizes, cfg.sparsity_levels, cfg.out_dir) == ([2, 4], [], str(tmp_path / "x"))

    def test_optional_keys_take_their_defaults(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[model]\ncode_length = 8\nsparsity = 2\nnum_groups = 4\n[data]\nnum_identities = 16\ndim = 16\n")
        cfg = load_experiment_config(str(path), {})
        assert cfg.model == ModelConfig(code_length=8, sparsity=2, num_groups=4)
        assert cfg.synthetic == data_mod.SyntheticSpec(16, 2, 16, 0.1, 0.25, seed=0)
        assert (cfg.group_sizes, cfg.sparsity_levels, cfg.out_dir) == ([], [], "gmkit-out")

    @pytest.mark.parametrize("key", [*_MODEL_FIELDS, "num_identities", "samples_per_identity", "dim",
                                     "noise_sigma", "impostor_fraction", "data_seed"])
    def test_bad_value_names_its_key(self, tmp_path, config_path, capsys, key):
        assert main(["train", "--config", config_path(tmp_path / "x"), f"--{key}=x"]) == 1
        assert capsys.readouterr().err == f"ERROR:config:bad value for {key}: 'x'\n"

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf", "0", "-1.5"])
    def test_within_weight_outside_finite_positive_is_named(self, tmp_path, config_path, capsys, value):
        assert main(["train", "--config", config_path(tmp_path / "x"), f"--within_weight={value}"]) == 1
        assert capsys.readouterr().err == f"ERROR:config:within_weight must be finite and > 0, got {float(value)}\n"
        assert not (tmp_path / "x").exists()

    def test_readme_example_loads_at_the_defaults_it_shows(self, tmp_path):
        # an unknown key fails to load, so a removed key cannot linger in the docs
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        path = tmp_path / "exp.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        cfg = load_experiment_config(str(path), {})
        # the README shows every optional [model] and [data] key at its default
        assert cfg.model == ModelConfig(code_length=32, sparsity=8, num_groups=16)
        assert cfg.synthetic == data_mod.SyntheticSpec(num_identities=128, samples_per_identity=2, dim=64,
                                                       noise_sigma=0.1, impostor_fraction=0.25, seed=0)
        assert (cfg.dataset_dir, cfg.group_sizes, cfg.sparsity_levels, cfg.out_dir) == (None, [2, 8, 32], [4, 8, 16], "out")

    @pytest.mark.parametrize("key", ["code_length", "sparsity", "num_groups", "num_identities", "dim"])
    def test_missing_required_key_is_named(self, tmp_path, config_path, capsys, key):
        cfg = config_path(tmp_path / "x")
        text = Path(cfg).read_text()
        Path(cfg).write_text("\n".join(line for line in text.splitlines() if line.split("=")[0].strip() != key))
        assert main(["train", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"ERROR:config:missing required config key {key!r}\n"


class TestGenData:
    def test_writes_bundle_and_creates_dir(self, tmp_path, config_path):
        out = tmp_path / "does" / "not" / "exist"
        assert main(["gen-data", "--config", config_path(out)]) == 0
        assert (out / "enrolled.npy").exists()
        assert (out / "genuine.npy").exists()
        assert (out / "impostors.npy").exists()

    def test_byte_identical_across_runs(self, tmp_path, config_path):
        out = tmp_path / "bundle"
        cfg = config_path(out)
        assert main(["gen-data", "--config", cfg]) == 0
        first = read_tree(out)
        for name in first:
            (out / name).unlink()
        assert main(["gen-data", "--config", cfg]) == 0
        assert read_tree(out) == first

    def test_invalid_spec_errors_with_prefix(self, tmp_path, config_path, capsys):
        cfg = config_path(tmp_path / "x", impostor_fraction="1.5")
        assert main(["gen-data", "--config", cfg]) != 0
        err = capsys.readouterr().err
        assert err.startswith("ERROR:config:")

    def test_unknown_override_rejected(self, tmp_path, config_path, capsys):
        cfg = config_path(tmp_path / "x")
        assert main(["gen-data", "--config", cfg, "--no_such_key=1"]) != 0
        assert capsys.readouterr().err.startswith("ERROR:config:")

    @pytest.mark.parametrize("command", ["train", "eval-verify"])
    def test_nan_identity_is_parse_error(self, tmp_path, config_path, capsys, command):
        bundle = tmp_path / "bundle"
        assert main(["gen-data", "--config", config_path(bundle)]) == 0
        convert_to_csv(bundle)
        path = bundle / "genuine.csv"
        lines = path.read_text().split("\n")
        lines[1] = "nan," + lines[1].split(",", 1)[1]
        path.write_text("\n".join(lines))
        capsys.readouterr()
        rc = main([command, "--config", config_path(tmp_path / "run"), "--dataset", str(bundle)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"ERROR:io:{path}: row 2: identity nan is not")

    @pytest.mark.parametrize("command", ["train", "eval-verify"])
    def test_identity_past_enrolled_count_is_parse_error(self, tmp_path, config_path, capsys, command):
        # 1e300 is a finite, nonnegative integer that int64 cannot hold
        bundle = tmp_path / "bundle"
        assert main(["gen-data", "--config", config_path(bundle)]) == 0
        convert_to_csv(bundle)
        path = bundle / "genuine.csv"
        lines = path.read_text().split("\n")
        lines[1] = "1e300," + lines[1].split(",", 1)[1]
        path.write_text("\n".join(lines))
        capsys.readouterr()
        rc = main([command, "--config", config_path(tmp_path / "run"), "--dataset", str(bundle)])
        assert rc == 1
        assert capsys.readouterr().err == f"ERROR:io:{path}: row 2: identity 1e+300 is not an integer in [0, 16)\n"

    @pytest.mark.parametrize("command", ["train", "eval-verify"])
    def test_non_ascii_byte_is_parse_error(self, tmp_path, config_path, capsys, command):
        bundle = tmp_path / "bundle"
        assert main(["gen-data", "--config", config_path(bundle)]) == 0
        convert_to_csv(bundle)
        path = bundle / "impostors.csv"
        line = path.read_bytes().count(b"\n") + 1
        with open(path, "ab") as fh:
            fh.write(b"\xc3\xa9")
        capsys.readouterr()
        rc = main([command, "--config", config_path(tmp_path / "run"), "--dataset", str(bundle)])
        assert rc == 1
        assert capsys.readouterr().err == f"ERROR:io:{path}: row {line}: byte 0xc3 is not ASCII\n"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_impostor_is_input_error(self, tmp_path, config_path, capsys, bad):
        bundle = tmp_path / "bundle"
        assert main(["gen-data", "--config", config_path(bundle)]) == 0
        convert_to_csv(bundle)
        path = bundle / "impostors.csv"
        lines = path.read_text().split("\n")
        lines[1] = bad + "," + lines[1].split(",", 1)[1]
        path.write_text("\n".join(lines))
        capsys.readouterr()
        rc = main(["eval-verify", "--config", config_path(tmp_path / "run"), "--dataset", str(bundle)])
        assert rc == 1
        # named by file, row and column, not reported as a norm failure of some query
        assert capsys.readouterr().err == f"ERROR:io:{path}: row 2, column 1: {float(bad)!r} is not finite\n"


class TestBundleFormat:
    @pytest.fixture()
    def parsed(self, monkeypatch):
        """The paths data.load_matrix is called with."""
        calls = []
        parse = data_mod.load_matrix

        def counting(path):
            calls.append(os.path.basename(path))
            return parse(path)

        monkeypatch.setattr(data_mod, "load_matrix", counting)
        return calls

    def test_train_and_eval_never_parse_a_generated_bundle(self, tmp_path, config_path, parsed):
        bundle = tmp_path / "bundle"
        assert main(["gen-data", "--config", config_path(bundle)]) == 0
        assert sorted(os.listdir(bundle)) == ["enrolled.npy", "genuine.npy", "impostors.npy"]
        cfg = config_path(tmp_path / "run")
        chain = (["train", "--config", cfg, "--dataset", str(bundle)],
                 ["eval-verify", "--config", cfg, "--dataset", str(bundle)])
        for argv in chain:
            assert main(argv) == 0
        assert parsed == []
        first = read_tree(tmp_path / "run")
        convert_to_csv(bundle)  # the same matrices, as CSV
        for argv in chain:
            assert main(argv) == 0
        assert parsed == ["enrolled.csv", "genuine.csv", "impostors.csv"] * 2
        assert read_tree(tmp_path / "run") == first

    def test_bundle_of_both_formats_is_a_parse_error(self, tmp_path, config_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(["gen-data", "--config", config_path(bundle)]) == 0
        data_mod.save_matrix(str(bundle / "genuine.csv"), np.load(bundle / "genuine.npy"))
        capsys.readouterr()
        assert main(["train", "--config", config_path(tmp_path / "run"), "--dataset", str(bundle)]) == 1
        assert capsys.readouterr().err == (
            f"ERROR:io:{bundle}: holds both .npy (enrolled.npy, genuine.npy, impostors.npy) and CSV (genuine.csv) "
            "bundle files; a bundle is one or the other, so delete one set\n"
        )


class TestTrain:
    def test_model_file_written_and_deterministic(self, tmp_path, config_path):
        out = tmp_path / "run"
        cfg = config_path(out)
        assert main(["train", "--config", cfg]) == 0
        first = read_tree(out)
        assert "model.txt" in first and "train.log" in first
        for name in first:
            (out / name).unlink()
        assert main(["train", "--config", cfg]) == 0
        assert read_tree(out) == first

    @pytest.mark.parametrize("cap", [1, 2, 10])
    def test_log_states_iterations_and_cap_only(self, tmp_path, config_path, cap):
        # on this config the state repeats at iteration 2, so a cap of 2 and
        # a repeat end the run at once: the log names neither as the reason
        out = tmp_path / "run"
        assert main(["train", "--config", config_path(out, max_outer_iters=str(cap))]) == 0
        ran = len(load_model(str(out / "model.txt")).objective_trace)
        assert ran == min(cap, 2)
        lines = (out / "train.log").read_text().splitlines()
        assert [line.split(":")[0] for line in lines if line.startswith("iter ")] == [f"iter {i}" for i in range(1, ran + 1)]
        assert lines[-2] == f"stopped after {ran} iterations (max_outer_iters={cap})"

    def test_log_reports_final_within_trace(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert main(["train", "--config", config_path(out)]) == 0
        log = (out / "train.log").read_text()
        assert "final within_trace=" in log

    def test_singleton_groups_log_zero_within(self, tmp_path, config_path):
        out = tmp_path / "run"
        cfg = config_path(out, num_groups="16")
        assert main(["train", "--config", cfg]) == 0
        assert "final within_trace=0.0" in (out / "train.log").read_text()

    def test_baseline_flag_pins_assignment(self, tmp_path, config_path):
        out = tmp_path / "run"
        cfg = config_path(out)
        assert main(["train", "--config", cfg, "--baseline-group-size", "4"]) == 0
        model = load_model(str(out / "model.txt"))
        expected = random_balanced_assignment(16, 4, 4, np.random.default_rng(3))
        assert np.array_equal(model.assignments.group_of, expected.group_of)

    def test_override_flag_changes_seed(self, tmp_path, config_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["train", "--config", config_path(out_a)]) == 0
        assert main(["train", "--config", config_path(out_b), "--seed=99"]) == 0
        assert (out_a / "model.txt").read_bytes() != (out_b / "model.txt").read_bytes()

    def test_dataset_flag_needs_no_data_section(self, tmp_path, config_path):
        bundle = tmp_path / "bundle"
        assert main(["gen-data", "--config", config_path(bundle)]) == 0
        cfg = Path(config_path(tmp_path / "run"))
        text = cfg.read_text()
        cfg.write_text(text[:text.index("[data]")] + text[text.index("[sweep]"):])
        for command in ("train", "eval-verify"):
            assert main([command, "--config", str(cfg), "--dataset", str(bundle)]) == 0
        flagged = read_tree(tmp_path / "run")
        assert f"data: {bundle}\n" in flagged["train.log"].decode()
        for command in ("train", "eval-verify"):
            assert main([command, "--config", str(cfg), f"--dataset_dir={bundle}"]) == 0
        assert read_tree(tmp_path / "run") == flagged

    def test_multi_valued_weight_list_rejected(self, tmp_path, config_path, capsys):
        cfg = config_path(tmp_path / "x")
        assert main(["train", "--config", cfg, "--within_weights=1.0,2.0"]) != 0
        assert capsys.readouterr().err.startswith("ERROR:config:")

    def test_weight_list_alias_is_unknown_key(self, tmp_path, config_path, capsys):
        cfg = config_path(tmp_path / "x")
        assert main(["train", "--config", cfg, "--within_weights=2.5"]) == 1
        assert capsys.readouterr().err == "ERROR:config:unknown override key 'within_weights'\n"
        # the retired between-group weight, in [model]
        Path(cfg).write_text(Path(cfg).read_text().replace("[model]\n", "[model]\nbetween_weight = 0.1\n"))
        assert main(["train", "--config", cfg]) == 1
        assert capsys.readouterr().err == "ERROR:config:unknown key 'between_weight' in section [model]\n"
        assert not (tmp_path / "x").exists()

    def test_retired_convergence_tol_is_unknown_key(self, tmp_path, config_path, capsys):
        cfg = config_path(tmp_path / "x")
        assert main(["train", "--config", cfg, "--convergence_tol=0.5"]) == 1
        assert capsys.readouterr().err == "ERROR:config:unknown override key 'convergence_tol'\n"
        Path(cfg).write_text(Path(cfg).read_text().replace("[model]\n", "[model]\nconvergence_tol = 0.0\n"))
        assert main(["train", "--config", cfg]) == 1
        assert capsys.readouterr().err == "ERROR:config:unknown key 'convergence_tol' in section [model]\n"
        assert not (tmp_path / "x").exists()

    def test_seed_environment_variable_changes_no_output(self, tmp_path, config_path, monkeypatch):
        # seeds come from the config and the flags only
        trees = []
        for name in ("unset", "set"):
            if name == "set":
                monkeypatch.setenv("GMK_SEED", "77")
            out = tmp_path / name
            assert main(["train", "--config", config_path(out / "train")]) == 0
            assert main(["protocol-demo", "--model", str(out / "train" / "model.txt"), "--query-index", "0",
                         "--tau", "4", "--seed", "5", "--out-dir", str(out / "demo"), "--additive-bits", "64"]) == 0
            trees.append(read_tree(out))
        assert trees[0] == trees[1]


class TestEval:
    def test_verify_sweep_emits_index_and_point_files(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert main(["eval-verify", "--config", config_path(out)]) == 0
        index = (out / "verify-metrics.csv").read_text().splitlines()
        assert index[0] == "m,pfn_at_pfp05,p_epsilon,dir,mse_security,mse_privacy"
        assert len(index) == 3  # two sweep points
        assert (out / "verify-m-2.csv").exists()
        assert (out / "verify-m-4.csv").exists()

    def test_verify_separable_data_reaches_zero_pfn(self, tmp_path, config_path):
        out = tmp_path / "run"
        cfg = config_path(out, noise_sigma="0.0", group_sizes="1", num_groups="16", sparsity="6")
        assert main(["eval-verify", "--config", cfg]) == 0
        rows = (out / "verify-metrics.csv").read_text().splitlines()
        assert rows[1].split(",")[1] == "0.0"

    def test_identify_single_group_zero_epsilon(self, tmp_path, config_path):
        out = tmp_path / "run"
        cfg = config_path(out, group_sizes="16")
        assert main(["eval-identify", "--config", cfg]) == 0
        rows = (out / "identify-metrics.csv").read_text().splitlines()
        assert rows[1].split(",")[2] == "0.0"

    def test_security_sweeps_sparsity(self, tmp_path, config_path):
        out = tmp_path / "run"
        cfg = config_path(out)
        with open(cfg) as fh:
            text = fh.read()
        with open(cfg, "w") as fh:
            fh.write(text.replace("group_sizes = 2,4", "group_sizes = 2,4\nsparsity_levels = 2,4"))
        assert main(["eval-security", "--config", cfg]) == 0
        index = (out / "security-metrics.csv").read_text().splitlines()
        assert index[0].startswith("S,")
        assert len(index) == 3

    def test_saved_model_eval_matches_sweep_row(self, tmp_path, config_path):
        out_train = tmp_path / "train"
        cfg = config_path(out_train, group_sizes="4")
        assert main(["train", "--config", cfg]) == 0
        assert main(["eval-verify", "--config", cfg]) == 0
        sweep_rows = (out_train / "verify-metrics.csv").read_text()

        out_eval = tmp_path / "eval"
        cfg2 = config_path(out_eval, group_sizes="4")
        assert main(["eval-verify", "--config", cfg2, "--model", str(out_train / "model.txt")]) == 0
        model_rows = (out_eval / "verify-metrics.csv").read_text()
        assert model_rows == sweep_rows

    def test_bad_model_config_value_is_io_error(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        cfg = config_path(out)
        assert main(["train", "--config", cfg]) == 0
        model_path = out / "model.txt"
        model_path.write_text(model_path.read_text().replace("code_length=8\n", "code_length=x\n"))
        capsys.readouterr()
        assert main(["eval-verify", "--config", cfg, "--model", str(model_path)]) == 1
        assert capsys.readouterr().err == f"ERROR:io:{model_path}: [config] bad value for code_length: 'x'\n"

    def test_eval_deterministic(self, tmp_path, config_path):
        out = tmp_path / "run"
        cfg = config_path(out)
        assert main(["eval-identify", "--config", cfg]) == 0
        first = read_tree(out)
        for name in first:
            (out / name).unlink()
        assert main(["eval-identify", "--config", cfg]) == 0
        assert read_tree(out) == first


class TestProtocolDemo:
    @pytest.fixture()
    def trained(self, tmp_path, config_path):
        out = tmp_path / "train"
        # singleton groups so a member's own code sits at distance zero
        cfg = config_path(out, num_groups="16")
        assert main(["train", "--config", cfg]) == 0
        return out / "model.txt"

    def test_member_code_accepts_at_zero(self, tmp_path, trained):
        out = tmp_path / "demo"
        rc = main([
            "protocol-demo", "--model", str(trained), "--query-index", "0", "--tau", "0",
            "--seed", "5", "--out-dir", str(out), "--additive-bits", "64",
        ])
        assert rc == 0
        assert (out / "decision.txt").read_text().strip() == "accept"
        transcript = ProtocolTranscript.load(str(out / "transcript.bin"))
        assert [m.round_no for m in transcript.messages] == [1, 2, 3]

    def test_negative_tau_rejects(self, tmp_path, trained):
        out = tmp_path / "demo"
        rc = main([
            "protocol-demo", "--model", str(trained), "--query-index", "0", "--tau", "-1",
            "--seed", "5", "--out-dir", str(out), "--additive-bits", "64",
        ])
        assert rc == 0
        assert (out / "decision.txt").read_text().strip() == "reject"

    def test_decision_matches_plaintext_verify(self, tmp_path, trained):
        model = load_model(str(trained))
        for idx, tau in ((0, 0), (1, 2), (2, -1)):
            out = tmp_path / f"demo{idx}_{tau}"
            rc = main([
                "protocol-demo", "--model", str(trained), "--query-index", str(idx), "--tau", str(tau),
                "--seed", "6", "--out-dir", str(out), "--additive-bits", "64",
            ])
            assert rc == 0
            code = model.codes.column(idx)
            plain = any(
                sum((int(x) - int(y)) ** 2 for x, y in zip(code.symbols, model.representations.codes[:, g])) <= tau
                for g in range(model.representations.num_groups)
            )
            assert ((out / "decision.txt").read_text().strip() == "accept") == plain

    def test_transcript_deterministic(self, tmp_path, trained):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            rc = main([
                "protocol-demo", "--model", str(trained), "--query-index", "0", "--tau", "4",
                "--seed", "9", "--out-dir", str(out), "--additive-bits", "64",
            ])
            assert rc == 0
            outs.append((out / "transcript.bin").read_bytes())
        assert outs[0] == outs[1]

    def test_bad_query_index(self, tmp_path, trained, capsys):
        rc = main([
            "protocol-demo", "--model", str(trained), "--query-index", "999", "--tau", "0",
            "--out-dir", str(tmp_path / "z"),
        ])
        assert rc != 0
        assert capsys.readouterr().err.startswith("ERROR:config:")
