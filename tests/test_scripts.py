"""Tests for the repository scripts."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = REPO_ROOT / "scripts"


@pytest.fixture(scope="module")
def run_experiments():
    spec = importlib.util.spec_from_file_location(
        "run_experiments", SCRIPTS / "run_experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunExperimentsScript:
    def test_unknown_experiment_exits_2(self, run_experiments, capsys):
        code = run_experiments.main(["--only", "fig99", "--scale", "smoke"])
        assert code == 2

    def test_single_experiment_markdown(self, run_experiments, tmp_path):
        out = tmp_path / "results.md"
        code = run_experiments.main(
            ["--only", "fig9", "--scale", "smoke", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("## Measured results")
        assert "Fig. 9" in text
        assert "| pair | rms distance |" in text

    def test_stdout_mode(self, run_experiments, capsys):
        code = run_experiments.main(["--only", "fig9", "--scale", "smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "### Fig. 9" in out


@pytest.fixture(scope="module")
def run_robustness():
    spec = importlib.util.spec_from_file_location(
        "run_robustness", SCRIPTS / "run_robustness.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunRobustnessScript:
    def test_smoke_writes_report_and_table(self, run_robustness, tmp_path):
        out = tmp_path / "rob.json"
        code = run_robustness.main(["--smoke", "--out", str(out)])
        assert code == 0
        import json

        report = json.loads(out.read_text())
        assert report["meta"]["label"] == "smoke"
        assert report["recovery"]["modes"]["full"]["errors"] == 0
        table = (tmp_path / "rob.md").read_text()
        assert "| fault | intensity |" in table

    def test_smoke_is_seed_reproducible(self, run_robustness, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_robustness.main(["--smoke", "--seed", "7", "--out", str(a)]) == 0
        assert run_robustness.main(["--smoke", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


#: Installs perfbench's traced launcher and prints the layer names it
#: wrapped, in the order it wrapped them.
_INSTALL_TRACING = """
import json
from benchlib.traced_serve import Recorder, install

class NamingRecorder(Recorder):
    def __init__(self):
        super().__init__()
        self.names = []

    def wrap(self, fn, name, **kwargs):
        self.names.append(name)
        return super().wrap(fn, name, **kwargs)

recorder = NamingRecorder()
install(recorder)
print(json.dumps(recorder.names))
"""


#: Installs perfbench's traced launcher, authenticates one probe through
#: an 840-feature authenticator, and prints ``[name, parent name]`` for
#: each span that probe opened, in the order the spans closed.
_TRACE_ONE_PROBE = """
import json
from benchlib.traced_serve import Recorder, install

recorder = Recorder()
install(recorder)

from repro.config import PAPER_PINS
from repro.core import EnrollmentOptions, P2Auth
from repro.data import StudyData, ThirdPartyStore

pin = PAPER_PINS[0]
data = StudyData(n_users=3, seed=21)
auth = P2Auth(pin=pin, options=EnrollmentOptions(num_features=840))
auth.enroll(
    data.trials(0, pin, "one_handed", 6),
    ThirdPartyStore(data, [1, 2], pin).sample(12),
)
probe = data.trials(0, pin, "one_handed", 7)[6]
del recorder.spans[:]
auth.authenticate(probe)
names = {span[0]: span[3] for span in recorder.spans}
print(json.dumps([[span[3], names.get(span[1])] for span in recorder.spans]))
"""


def _run_with_perfbench(script):
    """Run ``script`` in a subprocess that imports ``src`` and ``perfbench``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench")]
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


class TestTracedLauncher:
    def test_one_probe_opens_each_stage_span_once(self):
        # perfbench reads one core.stages.* span per stage per request,
        # each a child of the engine call.
        stages = ["repair", "preprocess", "segment", "featurize", "classify", "decide"]
        assert _run_with_perfbench(_TRACE_ONE_PROBE) == [
            [f"core.stages.{stage}", "core.authenticator.authenticate"]
            for stage in stages
        ] + [["core.authenticator.authenticate", None]]

    def test_every_layer_entry_point_still_exists(self):
        # perfbench/benchlib/traced_serve.py wraps these by module path
        # and name, among them each repro.core.stages *Stage.run: the
        # staged engine stays in the package for these spans.
        assert _run_with_perfbench(_INSTALL_TRACING) == [
            "service.protocol.parse",
            "service.protocol.enroll_parse",
            "service.protocol.to_wire",
            "service.protocol.decode_trial",
            "service.protocol.verify_proof",
            "service.core.authenticate",
            "service.core.enroll_complete",
            "core.session.new",
            "core.session.submit_entry",
            "core.registry.get",
            "core.registry.add",
            "core.backends.load",
            "core.backends.store",
            "core.authenticator.warmup",
            "core.authenticator.authenticate",
            "core.authenticator.enroll",
            "core.stages.repair",
            "core.stages.preprocess",
            "core.stages.segment",
            "core.stages.featurize",
            "core.stages.classify",
            "core.stages.decide",
        ]
