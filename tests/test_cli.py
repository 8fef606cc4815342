import argparse
import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

from pgft import cli, graph, rdo
from pgft.cli import main
from pgft.codec import encode_sequence
from pgft.pointcloud import SequenceConfig, read_ply
from pgft.synth import synthetic_sequence, write_synthetic_sequence


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def test_encode_synthetic_smoke(tmp_path, capsys):
    frames_dir = str(tmp_path / "frames")
    assert main(["synth", "wave", "--frames", "2", "--points", "800",
                 "--output", frames_dir]) == 0
    out = tmp_path / "seq.bin"
    rc = main(["encode", "--input", frames_dir, "--q", "8", "--grid-dim", "64",
               "--output", str(out)])
    assert rc == 0
    assert out.exists()
    assert len(_read_jsonl(str(out) + ".stats.jsonl")) == 2
    assert not os.path.exists(str(out) + ".stats.tsv")


def test_encode_ignores_threads_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("PGFT_THREADS", "abc")
    write_synthetic_sequence(tmp_path / "frames", "wave", 1, 400, seed=0)
    rc = main(["encode", "--input", str(tmp_path / "frames"), "--q", "8",
               "--grid-dim", "32", "--output", str(tmp_path / "seq.bin")])
    assert rc == 0


def test_decode_has_no_seed_flag(tmp_path):
    write_synthetic_sequence(tmp_path / "frames", "wave", 1, 200, seed=0)
    with pytest.raises(SystemExit) as info:
        main(["decode", "--bitstream", str(tmp_path / "x.bin"),
              "--geometry", str(tmp_path / "frames"),
              "--output", str(tmp_path / "out"), "--seed", "1"])
    assert info.value.code == 2


def test_encode_missing_q_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["encode", "--input", str(tmp_path),
              "--output", str(tmp_path / "x.bin")])
    assert info.value.code == 2


def test_encode_q_zero_rejected(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["encode", "--input", str(tmp_path), "--q", "0",
              "--output", str(tmp_path / "x.bin")])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["encode", "--q", "nan"],
    ["encode", "--q", "8", "--gop", "0"],
    ["encode", "--q", "8", "--cluster-size", "0"],
    ["encode", "--q", "8", "--gop", "70000"],
    ["encode", "--q", "8", "--grid-dim", "0"],
    ["rd-sweep", "--q-list", "4,nan"],
    ["encode", "--q", "8", "--cluster-size", "2049"],
])
def test_bad_config_value_is_usage_error(tmp_path, argv):
    write_synthetic_sequence(tmp_path / "frames", "wave", 1, 50, seed=0)
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as info:
        main(argv + ["--input", str(tmp_path / "frames"),
                     "--output", str(tmp_path / "out")])
    assert info.value.code == 2
    assert sorted(tmp_path.rglob("*")) == before


def test_encode_q_too_small_for_coder_exits_1(tmp_path, capsys):
    """A --q that passes validation but makes an index overflow int64 is
    a runtime failure that names the value, and writes no stream."""
    write_synthetic_sequence(tmp_path / "frames", "wave", 1, 200, seed=0)
    out = tmp_path / "x.bin"
    rc = main(["encode", "--input", str(tmp_path / "frames"), "--q", "1e-20",
               "--grid-dim", "32", "--output", str(out)])
    assert rc == 1
    assert "qstep=1e-20 is too small" in capsys.readouterr().err
    assert not out.exists()


def test_encode_decode_stats_records_match(tmp_path):
    """Both sides write every FrameStats field, mirror hash included, as
    one JSON object per frame, equal to the library's stats exactly."""
    frames_dir = tmp_path / "frames"
    paths = write_synthetic_sequence(frames_dir, "wave", 2, 800, seed=0)
    out = tmp_path / "seq.bin"
    rc = main(["encode", "--input", str(frames_dir), "--q", "8",
               "--grid-dim", "64", "--output", str(out)])
    assert rc == 0
    dec_dir = tmp_path / "decoded"
    rc = main(["decode", "--bitstream", str(out), "--geometry", str(frames_dir),
               "--output", str(dec_dir)])
    assert rc == 0
    assert sorted(os.listdir(dec_dir))[:2] == ["decode.stats.jsonl",
                                               "decoded_0000.ply"]
    enc_rows = _read_jsonl(str(out) + ".stats.jsonl")
    dec_rows = _read_jsonl(dec_dir / "decode.stats.jsonl")
    result = encode_sequence([read_ply(p) for p in paths],
                             SequenceConfig(qstep=8.0, grid_dim=64))
    assert enc_rows == dec_rows == [dataclasses.asdict(s)
                                    for s in result.stats]
    assert all(row["mirror_hash"] for row in enc_rows)


def test_records_read_back_exactly(tmp_path):
    """json.loads reads back every value _write_records writes, an
    infinite PSNR (an exactly reconstructed frame) included."""
    rows = [{"psnr_y": math.inf, "bpip": 1 / 3}, {"q": 0.1, "bits": 2 ** 60}]
    cli._write_records(tmp_path / "rows.jsonl", rows)
    assert "Infinity" in (tmp_path / "rows.jsonl").read_text()
    assert _read_jsonl(tmp_path / "rows.jsonl") == rows


def test_decode_wrong_geometry_fails_cleanly(tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    other_dir = tmp_path / "other"
    write_synthetic_sequence(frames_dir, "wave", 2, 600, seed=1)
    write_synthetic_sequence(other_dir, "wave", 2, 600, seed=2)
    out = tmp_path / "seq.bin"
    assert main(["encode", "--input", str(frames_dir), "--q", "8",
                 "--grid-dim", "64", "--output", str(out)]) == 0
    dec_dir = tmp_path / "decoded"
    rc = main(["decode", "--bitstream", str(out), "--geometry", str(other_dir),
               "--output", str(dec_dir)])
    assert rc == 1
    assert "geometry mismatch" in capsys.readouterr().err
    assert not dec_dir.exists()  # no partial outputs


def test_decode_truncated_stream_fails_cleanly(tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    write_synthetic_sequence(frames_dir, "wave", 2, 600, seed=3)
    out = tmp_path / "seq.bin"
    assert main(["encode", "--input", str(frames_dir), "--q", "8",
                 "--grid-dim", "64", "--output", str(out)]) == 0
    data = out.read_bytes()
    out.write_bytes(data[: len(data) // 2])
    dec_dir = tmp_path / "decoded"
    rc = main(["decode", "--bitstream", str(out), "--geometry", str(frames_dir),
               "--output", str(dec_dir)])
    assert rc == 1
    assert not dec_dir.exists()


def test_rd_sweep(tmp_path, capsys, monkeypatch):
    """The printed fit is `fit_lambda_model` on the curve file's rows as
    json.loads reads them, which are the rows it was fitted to, unrounded."""
    fitted = []
    real_fit = rdo.fit_lambda_model

    def spy(points):
        fitted.extend(points)
        return real_fit(fitted)

    monkeypatch.setattr(cli.rdo, "fit_lambda_model", spy)
    curve = tmp_path / "curve.jsonl"
    write_synthetic_sequence(tmp_path / "frames", "wave", 2, 800, seed=0)
    rc = main(["rd-sweep", "--input", str(tmp_path / "frames"),
               "--grid-dim", "64", "--q-list", "2,4,8,16,32",
               "--output", str(curve)])
    assert rc == 0
    rows = _read_jsonl(curve)
    assert [list(r) for r in rows] == [["q", "bpip", "psnr_y", "psnr_u",
                                        "psnr_v"]] * 5
    bpips = [r["bpip"] for r in rows]
    assert all(b < a for a, b in zip(bpips, bpips[1:]))
    points = [(r["q"], r["bpip"], rdo.distortion_from_psnr(
        r["psnr_y"], r["psnr_u"], r["psnr_v"])) for r in rows]
    assert fitted == points
    alpha, beta = real_fit(points)
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [f"alpha = {alpha:.6g}", f"beta = {beta:.6g}"]


def test_rd_sweep_encodes_each_q_once_and_never_decodes(tmp_path,
                                                         monkeypatch):
    encoded = []
    real = cli.codec.encode_sequence

    def counting(frames, config, **kwargs):
        encoded.append(config.qstep)
        return real(frames, config, **kwargs)

    def never(*args, **kwargs):
        raise AssertionError("rd-sweep decoded")

    monkeypatch.setattr(cli.codec, "encode_sequence", counting)
    monkeypatch.setattr(cli.codec, "decode_sequence", never)
    write_synthetic_sequence(tmp_path / "frames", "static", 1, 500, seed=0)
    rc = main(["rd-sweep", "--input", str(tmp_path / "frames"),
               "--grid-dim", "64", "--q-list", "8,4,8",
               "--output", str(tmp_path / "curve.jsonl")])
    assert rc == 0
    assert encoded == [4.0, 8.0]


def test_rd_sweep_single_q(tmp_path, capsys):
    curve = tmp_path / "curve.jsonl"
    write_synthetic_sequence(tmp_path / "frames", "static", 1, 500, seed=0)
    rc = main(["rd-sweep", "--input", str(tmp_path / "frames"),
               "--grid-dim", "64", "--q-list", "8", "--output", str(curve)])
    assert rc == 0
    out, err = capsys.readouterr()
    assert "warning: no lambda-Q fit: need >= 3 points" in err
    assert "alpha" not in out
    assert len(_read_jsonl(curve)) == 1


def test_fit_lambda_subcommand_is_gone(tmp_path):
    """rd-sweep prints the fit; there is no second command for it."""
    with pytest.raises(SystemExit) as info:
        main(["fit-lambda", "--curve", str(tmp_path / "curve.jsonl")])
    assert info.value.code == 2


def test_rd_sweep_duplicate_q_warns(tmp_path, capsys):
    curve = tmp_path / "curve.jsonl"
    write_synthetic_sequence(tmp_path / "frames", "static", 1, 500, seed=0)
    rc = main(["rd-sweep", "--input", str(tmp_path / "frames"),
               "--grid-dim", "64", "--q-list", "8,8", "--output", str(curve)])
    assert rc == 0
    assert "duplicate" in capsys.readouterr().err
    assert len(_read_jsonl(curve)) == 1


def test_validate_gmrf_dataset_mode(tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    write_synthetic_sequence(frames_dir, "wave", 5, 800, seed=4)
    rc = main(["validate-gmrf", "--input", str(frames_dir), "--patches", "3"])
    assert rc == 0
    out, err = capsys.readouterr()
    assert _support_size(out) == 1440  # frame 0's spacing connects the graph
    assert "nan" not in out
    assert "no edges" not in err


def test_validate_gmrf_builds_the_encoders_graph(tmp_path, graph_radii):
    """At default flags (grid 4096) an 800-point input is sparse: the
    floor of 50 would leave the tracked cluster without edges.  The study
    builds its Laplacian with the radius the encoder derives from frame
    0, so it has edges."""
    paths = [str(p) for p in
             write_synthetic_sequence(tmp_path, "wave", 4, 800, seed=4)]
    frames = [read_ply(p) for p in paths]
    encode_sequence(frames[:1], SequenceConfig())
    encoder_radii = set(graph_radii)
    graph_radii.clear()
    lap, _ = cli._aligned_patch_samples(paths, 3, SequenceConfig())
    assert graph_radii == encoder_radii
    assert min(graph_radii) > graph.EPSILON_SQ_FLOOR
    assert np.count_nonzero(lap - np.diag(np.diag(lap))) > 0


def _count_reads(monkeypatch):
    """The paths `cli` reads with read_ply, in call order."""
    reads = []
    monkeypatch.setattr(cli, "read_ply",
                        lambda path: reads.append(path) or read_ply(path))
    return reads


def test_validate_gmrf_reads_only_the_frames_it_uses(tmp_path, monkeypatch):
    paths = write_synthetic_sequence(tmp_path, "wave", 6, 800, seed=4)
    reads = _count_reads(monkeypatch)
    assert main(["validate-gmrf", "--input", str(tmp_path),
                 "--patches", "3"]) == 0
    assert reads == paths[:4]


@pytest.mark.parametrize("patches", ["0", "-3"], ids=lambda p: f"--input-{p}")
def test_validate_gmrf_patches_below_one_is_usage_error(
        tmp_path, monkeypatch, capsys, patches):
    write_synthetic_sequence(tmp_path, "wave", 2, 50, seed=0)
    reads = _count_reads(monkeypatch)
    with pytest.raises(SystemExit) as info:
        main(["validate-gmrf", "--input", str(tmp_path), "--patches", patches])
    assert info.value.code == 2
    assert "--patches must be >= 1" in capsys.readouterr().err
    assert reads == []


@pytest.mark.parametrize("argv", [
    pytest.param(["encode", "--input", "IN", "--output", "OUT", "--q", "0"],
                 id="main-config"),
    pytest.param(["encode", "--input", "IN", "--output", "OUT", "--q", "8",
                  "--threads", "0"], id="main-threads"),
    pytest.param(["decode", "--bitstream", "OUT", "--geometry", "MISSING",
                  "--output", "OUT"], id="resolve-ply-paths-missing"),
    pytest.param(["encode", "--input", "EMPTY", "--output", "OUT", "--q", "8"],
                 id="resolve-ply-paths-empty"),
    pytest.param(["synth", "wave", "--points", "0", "--output", "OUT"],
                 id="synth"),
    pytest.param(["rd-sweep", "--input", "IN", "--output", "OUT",
                  "--q-list", "abc"], id="rd-sweep-q-list"),
    pytest.param(["rd-sweep", "--input", "IN", "--output", "OUT",
                  "--q-list", "0"], id="rd-sweep-config"),
    pytest.param(["validate-gmrf", "--input", "IN", "--patches", "9"],
                 id="validate-gmrf-frames"),
    pytest.param(["validate-gmrf", "--input", "IN", "--patches", "0"],
                 id="validate-gmrf-patches")])
def test_usage_error_prints_subcommand_usage(tmp_path, capsys, argv):
    """Hand-written usage errors print the subcommand's usage line, as
    argparse's own errors do."""
    write_synthetic_sequence(tmp_path / "in", "wave", 1, 50, seed=0)
    (tmp_path / "empty").mkdir()
    names = {"IN": tmp_path / "in", "OUT": tmp_path / "out",
             "MISSING": tmp_path / "missing", "EMPTY": tmp_path / "empty"}
    with pytest.raises(SystemExit) as info:
        main([str(names.get(a, a)) for a in argv])
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: pgft {argv[0]} ")


def _support_size(out):
    line = next(l for l in out.splitlines() if l.startswith("support size"))
    return int(line.split()[2])


def test_validate_gmrf_dataset_mode_takes_graph_flags(tmp_path, capsys):
    """--grid-dim and --cluster-size change the tracked cluster's graph,
    and a cluster of one voxel has no edges, which the study warns of."""
    frames_dir = tmp_path / "frames"
    write_synthetic_sequence(frames_dir, "wave", 5, 800, seed=4)
    argv = ["validate-gmrf", "--input", str(frames_dir), "--patches", "3"]
    assert main(argv + ["--cluster-size", "1"]) == 0
    out, err = capsys.readouterr()
    assert _support_size(out) == 0
    assert "sign agreement on support: nan" in out
    assert "support correlation: nan" in out
    assert "no edges" in err
    argv += ["--grid-dim", "128"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert _support_size(out) == 1456
    assert "no edges" not in err
    assert main(argv + ["--cluster-size", "200"]) == 0  # a smaller cluster
    assert _support_size(capsys.readouterr().out) == 687


@pytest.mark.parametrize("flag,field", [
    ("--grid-dim", "grid_dim"), ("--cluster-size", "target_cluster_size")])
def test_validate_gmrf_bad_graph_flag_is_usage_error(tmp_path, capsys, flag,
                                                     field):
    with pytest.raises(SystemExit) as info:
        main(["validate-gmrf", "--input", str(tmp_path), flag, "0"])
    assert info.value.code == 2
    assert f"{field}=0" in capsys.readouterr().err


def test_aligned_patch_samples_digest(tmp_path):
    """The dataset mode's Laplacian and patch samples on
    test_validate_gmrf_dataset_mode's input, pinned byte for byte at grid
    128, where frame 0's point spacing sets epsilon^2 to 158."""
    frames_dir = tmp_path / "frames"
    write_synthetic_sequence(frames_dir, "wave", 5, 800, seed=4)
    paths = sorted(str(p) for p in frames_dir.glob("*.ply"))
    lap, samples = cli._aligned_patch_samples(paths, 3,
                                              SequenceConfig(grid_dim=128))
    assert lap.shape == (406, 406)
    assert samples.shape == (4, 406)
    assert np.count_nonzero(lap - np.diag(np.diag(lap))) == 2912
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(lap, dtype="<f8").tobytes())
    digest.update(np.ascontiguousarray(samples, dtype="<f8").tobytes())
    assert digest.hexdigest() == (
        "ad36d9d124403c2bebdbaad13fed79887951ef0dc4529e55f98dc6184445724c")


def test_encode_flags_set_every_config_field():
    args = cli.build_parser().parse_args([
        "encode", "--input", "x", "--output", "x.bin", "--q", "7",
        "--gop", "7", "--cluster-size", "7",
        "--grid-dim", "7"])
    config = cli._config(args, args.parser)
    assert dataclasses.asdict(config) == {
        f.name: 7 for f in dataclasses.fields(SequenceConfig)}


def test_flag_names_have_one_meaning():
    """An option string takes the same nargs and type in every subcommand."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    meanings = {}
    for subparser in subparsers.values():
        for action in subparser._actions:
            for flag in action.option_strings:
                meanings.setdefault(flag, set()).add((action.nargs, action.type))
    assert {f: m for f, m in meanings.items() if len(m) > 1} == {}


@pytest.mark.parametrize("command", [["encode", "--q", "8"],
                                     ["rd-sweep", "--q-list", "8"]])
def test_synthetic_flag_is_gone(tmp_path, command):
    with pytest.raises(SystemExit) as info:
        main(command + ["--synthetic", "wave", "--input", str(tmp_path),
                        "--output", str(tmp_path / "out")])
    assert info.value.code == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["encode", "--q", "8"],
                                     ["rd-sweep", "--q-list", "8"],
                                     ["validate-gmrf"]], ids=lambda c: c[0])
def test_epsilon2_flag_is_gone(tmp_path, command):
    """The graph radius is derived from frame 0, not set."""
    argv = command + ["--epsilon2", "50", "--input", str(tmp_path)]
    if command[0] != "validate-gmrf":
        argv += ["--output", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert not list(tmp_path.iterdir())


def test_synth_then_encode_matches_library(tmp_path):
    """`pgft synth` writes write_synthetic_sequence's PLYs, and encoding
    them gives the stream of the in-memory synthetic sequence."""
    frames_dir, ref_dir = tmp_path / "frames", tmp_path / "ref"
    assert main(["synth", "rigid-motion", "--frames", "3", "--points", "1500",
                 "--seed", "4", "--output", str(frames_dir)]) == 0
    ref_paths = write_synthetic_sequence(ref_dir, "rigid-motion", 3, 1500,
                                         seed=4)
    assert sorted(os.listdir(frames_dir)) == sorted(os.listdir(ref_dir))
    for ref in ref_paths:
        name = os.path.basename(ref)
        assert (frames_dir / name).read_bytes() == (ref_dir / name).read_bytes()
    out = tmp_path / "seq.bin"
    assert main(["encode", "--input", str(frames_dir), "--q", "8",
                 "--grid-dim", "128", "--output", str(out)]) == 0
    config = SequenceConfig(qstep=8.0, grid_dim=128)
    frames = synthetic_sequence("rigid-motion", 3, 1500, seed=4)
    assert out.read_bytes() == encode_sequence(frames, config).data


@pytest.mark.parametrize("flag", ["--frames", "--points"])
def test_synth_count_below_one_is_usage_error(tmp_path, flag):
    with pytest.raises(SystemExit) as info:
        main(["synth", "wave", flag, "0", "--output", str(tmp_path / "f")])
    assert info.value.code == 2
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("source,error", [
    (["--input", "frames", "--synthetic-nodes", "40"],
     "unrecognized arguments: --synthetic-nodes 40"),
    ([], "required: --input"),
    (["--synthetic-nodes", "0"], "required: --input")],
    ids=["source0", "source1", "source2"])
def test_validate_gmrf_needs_one_source(capsys, source, error):
    """--input is validate-gmrf's one source: it reads frames only, and
    demo 06 runs the synthetic loop-back on a known graph."""
    with pytest.raises(SystemExit) as info:
        main(["validate-gmrf"] + source)
    assert info.value.code == 2
    assert error in capsys.readouterr().err


def test_argument_slots_per_subcommand():
    """The CLI's knobs, counted: a new flag is a deliberate edit here."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    slots = {name: sum(not isinstance(a, argparse._HelpAction)
                       for a in subparser._actions)
             for name, subparser in subparsers.items()}
    assert slots == {"synth": 5, "encode": 7, "decode": 4, "rd-sweep": 7,
                     "validate-gmrf": 4}


def test_malformed_ply_names_file_and_vertex(tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    bad = frames_dir / "bad.ply"
    bad.write_text("ply\nformat ascii 1.0\nelement vertex 2\n"
                   + "".join(f"property float {c}\n" for c in "xyz")
                   + "".join(f"property uchar {c}\n"
                             for c in ("red", "green", "blue"))
                   + "end_header\n0 0 0 1 2 3\n1 1 1 4 5\n")
    assert main(["encode", "--input", str(frames_dir), "--q", "8",
                 "--output", str(tmp_path / "out.bin")]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "vertex 1" in err
