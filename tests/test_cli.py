"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.traces import Direction, Packet, PacketTrace, write_pcap
from repro.traces.tcpdump import write_tcpdump

# A Python source file is no capture: reading it as one must fail cleanly.
NOT_A_CAPTURE = __file__


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "carriers", "simulate", "apps", "compare-carriers", "validate",
            "trace-info",
        ):
            assert command in text

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_sources_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--app", "email", "--pcap", "x"])


class TestCarriersCommand:
    def test_lists_all_four_carriers(self, capsys):
        assert main(["carriers"]) == 0
        output = capsys.readouterr().out
        for key in ("tmobile_3g", "att_hspa", "verizon_3g", "verizon_lte"):
            assert key in output


class TestSimulateCommand:
    def test_synthetic_app_run(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code = main(
            [
                "simulate", "--app", "im", "--duration", "600",
                "--carrier", "att_hspa", "--csv", str(csv_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "makeidle" in output
        assert "status quo energy" in output
        assert csv_path.exists()
        assert "saved_percent" in csv_path.read_text(encoding="utf-8")

    def test_tcpdump_source(self, capsys, tmp_path):
        trace = PacketTrace(
            [
                Packet(float(i) * 20.0, 400, Direction.DOWNLINK, flow_id=i)
                for i in range(12)
            ],
            name="cap",
        )
        log = tmp_path / "cap.txt"
        write_tcpdump(trace, log)
        assert main(["simulate", "--tcpdump", str(log), "--carrier", "verizon_lte"]) == 0
        assert "oracle" in capsys.readouterr().out


class TestValidateCommand:
    def test_prints_error_summary(self, capsys):
        assert main(["validate", "--carrier", "verizon_lte"]) == 0
        output = capsys.readouterr().out
        assert "mean absolute error" in output
        assert "10% bound" in output


class TestTraceInfoCommand:
    def test_pcap_summary(self, capsys, tmp_path):
        trace = PacketTrace(
            [Packet(0.0, 500, Direction.UPLINK), Packet(3.0, 900, Direction.DOWNLINK)],
            name="two",
        )
        path = tmp_path / "two.pcap"
        write_pcap(path, trace)
        assert main(["trace-info", str(path)]) == 0
        output = capsys.readouterr().out
        assert "packets:        2" in output

    def test_tcpdump_summary(self, capsys, tmp_path):
        trace = PacketTrace(
            [Packet(0.0, 500, Direction.UPLINK), Packet(5.0, 900, Direction.DOWNLINK)],
        )
        path = tmp_path / "two.txt"
        write_tcpdump(trace, path)
        assert main(["trace-info", str(path), "--format", "tcpdump"]) == 0
        assert "duration" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["simulate", "--user", "99"],
    ["compare-carriers", "--users", "99"],
    ["simulate", "--duration", "0"],
    ["apps", "--duration", "0"],
    ["apps", "--duration", "nan"],
    ["sweep", "--cell", "--devices", "4", "--duration", "nan",
     "--schemes", "fixed"],
    ["sweep", "--cell", "--devices", "4", "--duration", "inf"],
    ["sweep", "--metro", "metro_4cell", "--devices", "4", "--duration", "inf"],
    ["compare-carriers", "--hours", "0"],
    ["trace-info", "/nonexistent"],
    ["simulate", "--pcap", "/nonexistent"],
    ["trace-info", NOT_A_CAPTURE],
    ["simulate", "--pcap", NOT_A_CAPTURE],
    ["sweep", "--apps", "im", "--duration", "60", "--jobs", "0"],
    ["sweep", "--apps", "im", "--duration", "60", "--jobs", "-3"],
], ids=lambda argv: " ".join(argv).replace(NOT_A_CAPTURE, "test_cli.py"))
def test_bad_input_is_a_clean_error(argv, capsys):
    # Every command reports bad input the way sweep does: one error line
    # on stderr and exit status 2, never a traceback.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


class TestSweepCommand:
    def test_basic_grid_with_aliases(self, capsys):
        code = main(
            [
                "sweep", "--apps", "email,im", "--carriers", "att_hspa,vzw_lte",
                "--schemes", "makeidle,learning", "--duration", "600",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        # Aliases resolved; status_quo implied as the baseline row.
        assert "verizon_lte" in output
        assert "makeidle+makeactive_learn" in output
        assert "status_quo" in output

    def test_process_pool_jobs(self, capsys):
        code = main(
            [
                "sweep", "--apps", "im", "--carriers", "att_hspa",
                "--schemes", "makeidle", "--duration", "600", "--jobs", "2",
            ]
        )
        assert code == 0
        assert "makeidle" in capsys.readouterr().out

    def test_json_output(self, capsys):
        import json

        code = main(
            [
                "sweep", "--apps", "im", "--carriers", "lte",
                "--schemes", "makeidle", "--duration", "600", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert {r["scheme"] for r in payload["records"]} == {
            "status_quo", "makeidle"
        }
        assert payload["cache"]["misses"] == 2

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--apps", "im", "--carriers", "att_hspa",
                "--duration", "600", "--csv", str(path),
            ]
        )
        assert code == 0
        assert "saved_percent" in path.read_text(encoding="utf-8")

    def test_plan_save_and_reload(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        assert main(
            [
                "sweep", "--apps", "im", "--carriers", "att_hspa",
                "--schemes", "makeidle", "--duration", "600",
                "--seeds", "0", "1", "--save-plan", str(plan_path),
            ]
        ) == 0
        first = capsys.readouterr().out
        assert plan_path.exists()
        assert main(["sweep", "--plan", str(plan_path)]) == 0
        assert capsys.readouterr().out == first

    def test_unknown_app_is_a_clean_error(self, capsys):
        code = main(["sweep", "--apps", "webmail", "--carriers", "att_hspa"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_sources_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--apps", "im", "--population", "verizon_3g"]
            )

    def test_missing_plan_file_is_a_clean_error(self, capsys):
        code = main(["sweep", "--plan", "/nonexistent/plan.json"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_truncated_capture_in_plan_is_a_clean_error(self, capsys, tmp_path):
        from repro.api import pcap, plan, save_plan

        capture = tmp_path / "capture.pcap"
        write_pcap(capture, PacketTrace([Packet(0.0, 500), Packet(5.0, 900)]))
        capture.write_bytes(capture.read_bytes()[:-4])
        plan_path = tmp_path / "plan.json"
        save_plan(plan().traces(pcap(str(capture))).carriers("att_hspa")
                  .policies("status_quo"), plan_path)
        assert main(["sweep", "--plan", str(plan_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "error: truncated pcap record payload")
        assert "Traceback" not in captured.err

    def test_empty_axis_is_a_clean_error(self, capsys):
        code = main(["sweep", "--apps", "im", "--carriers", ","])
        assert code == 2
        assert "carriers" in capsys.readouterr().err


class TestCellSweepCommand:
    def test_cell_grid_prints_cell_metrics(self, capsys):
        code = main(
            [
                "sweep", "--cell", "--devices", "8", "--apps", "im",
                "--carriers", "att_hspa", "--schemes", "makeidle",
                "--dormancy", "accept_all,reject_all", "--duration", "180",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "dormancy" in output
        assert "reject_all" in output
        assert "peak sw/min" in output

    def test_cell_json_carries_denial_rate(self, capsys):
        import json

        code = main(
            [
                "sweep", "--cell", "--devices", "4", "--apps", "im",
                "--carriers", "att_hspa", "--schemes", "makeidle",
                "--dormancy", "reject_all", "--duration", "180", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        makeidle_rows = [r for r in payload["records"]
                         if r["scheme"] == "makeidle"]
        assert makeidle_rows
        assert all(r["denial_rate"] == 1.0 for r in makeidle_rows)

    def test_cell_plan_round_trips(self, capsys, tmp_path):
        plan_path = tmp_path / "cellplan.json"
        assert main(
            [
                "sweep", "--cell", "--devices", "4", "--apps", "im",
                "--carriers", "att_hspa", "--schemes", "makeidle",
                "--duration", "180", "--save-plan", str(plan_path),
            ]
        ) == 0
        first = capsys.readouterr().out
        assert main(["sweep", "--plan", str(plan_path)]) == 0
        assert capsys.readouterr().out == first

    def test_cell_with_population_is_a_clean_error(self, capsys):
        code = main(
            ["sweep", "--cell", "--population", "verizon_3g",
             "--carriers", "att_hspa"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_dormancy_scheme_is_a_clean_error(self, capsys):
        code = main(
            ["sweep", "--cell", "--devices", "2", "--carriers", "att_hspa",
             "--dormancy", "sometimes"]
        )
        assert code == 2
        assert "dormancy" in capsys.readouterr().err

    def test_plan_naming_a_kernel_is_a_clean_error(self, capsys, tmp_path):
        # Plan files once carried a kernel choice per cell and per plan,
        # and a generation mode per cell; each shard now picks its own
        # kernel and each device's policy decides what is materialised,
        # so the keys are unknown keys.
        import json

        args = ["sweep", "--cell", "--devices", "4", "--apps", "im",
                "--carriers", "att_hspa", "--schemes", "fixed",
                "--duration", "120"]
        plan_path = tmp_path / "cellplan.json"
        assert main(args + ["--save-plan", str(plan_path)]) == 0
        capsys.readouterr()
        saved = json.loads(plan_path.read_text(encoding="utf-8"))
        for key, edit in (
            ("engines", lambda d: d.update(engines=["scalar", "vector"])),
            ("engine", lambda d: d["cells"][0].update(engine="vector")),
            ("streaming", lambda d: d["cells"][0].update(streaming=False)),
        ):
            legacy = json.loads(json.dumps(saved))
            edit(legacy)
            plan_path.write_text(json.dumps(legacy), encoding="utf-8")
            assert main(["sweep", "--plan", str(plan_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert f"key(s) '{key}'" in err

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(carrier="lte"),
        lambda d: d["cells"][0].update(devcies=40),
        lambda d: d.update(window_size=1),
        lambda d: d["cells"][0].update(devices="4"),
        lambda d: d["cells"][0].update(duration_s=None),
        lambda d: d["policies"][0].update(window_size="5"),
        lambda d: d.update(carriers=[7]),
        lambda d: d.update(seeds=["x"]),
        lambda d: d.update(window_size="100"),
        # 1e400 parses as inf; int() of it raised OverflowError.
        lambda d: d.update(dormancy=[{"scheme": "load_aware",
                                      "param": 1e400}]),
        lambda d: d.update(dormancy=[{"scheme": "load_aware",
                                      "param": float("nan")}]),
        lambda d: d.update(dormancy=[{"scheme": "rate_limited",
                                      "param": float("nan")}]),
        lambda d: d.update(dormancy=[{"scheme": "load_aware",
                                      "param": 0}]),
        lambda d: d["cells"][0].update(duration_s=float("nan")),
    ], ids=["top_level", "cell", "window_size", "devices_string",
            "duration_null", "policy_window_string", "carrier_number",
            "seed_string", "window_size_string", "load_aware_inf",
            "load_aware_nan", "rate_limited_nan", "load_aware_zero",
            "duration_nan"])
    def test_strict_plan_file_errors_are_clean(self, edit, capsys, tmp_path):
        import json

        plan_path = tmp_path / "cellplan.json"
        assert main(["sweep", "--cell", "--devices", "4", "--apps", "im",
                     "--carriers", "att_hspa", "--schemes", "fixed",
                     "--duration", "120", "--save-plan", str(plan_path)]) == 0
        capsys.readouterr()
        data = json.loads(plan_path.read_text(encoding="utf-8"))
        edit(data)
        plan_path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["sweep", "--plan", str(plan_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_cell_flags_without_cell_are_a_clean_error(self, capsys):
        code = main(
            ["sweep", "--apps", "im", "--carriers", "att_hspa",
             "--dormancy", "reject_all"]
        )
        assert code == 2
        assert "--cell" in capsys.readouterr().err
        code = main(
            ["sweep", "--apps", "im", "--carriers", "att_hspa",
             "--devices", "5"]
        )
        assert code == 2
        assert "--cell" in capsys.readouterr().err
