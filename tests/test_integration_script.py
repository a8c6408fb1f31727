"""Run scripts/trec_covid_integration.py end to end on tiny CORD-19-shaped
inputs: the topic ids it shifts must be scored against judgments with the
same shift."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

METADATA = """cord_uid,title,abstract,journal,publish_time
aaa1,Airborne transmission of coronavirus,Aerosols carry the virus indoors.,Journal A,2020
bbb2,Vaccine antibody response,A trial measured neutralizing antibody titres.,Journal B,2020
ccc3,Hospital supply chains,Masks and gloves ran short in spring.,Journal C,2020
"""

TOPICS = """<topics>
  <topic number="1">
    <query>airborne transmission</query>
    <question>how does the virus spread through aerosols</question>
    <narrative>documents on airborne spread</narrative>
  </topic>
  <topic number="2">
    <query>vaccine antibody</query>
    <question>what antibody titres do vaccines give</question>
    <narrative>documents on vaccine trials</narrative>
  </topic>
</topics>
"""

# Official numbering: topic 1 is the airborne topic, topic 2 the vaccine one.
QRELS = "1 0 aaa1 2\n1 0 ccc3 0\n2 0 bbb2 2\n2 0 ccc3 0\n"


def test_integration_script_scores_shifted_topics_against_shifted_qrels(tmp_path):
    (tmp_path / "metadata.csv").write_text(METADATA, encoding="utf-8")
    (tmp_path / "topics.xml").write_text(TOPICS, encoding="utf-8")
    (tmp_path / "qrels.txt").write_text(QRELS, encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "trec_covid_integration.py"),
         "--metadata", str(tmp_path / "metadata.csv"),
         "--topics-xml", str(tmp_path / "topics.xml"),
         "--qrels", str(tmp_path / "qrels.txt"),
         "--workdir", str(tmp_path / "work")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert "no judgments" not in result.stderr
    means = [line.split() for line in result.stdout.splitlines() if line.startswith("all ")]
    assert means == [["all", "1.0000", "1.0000"]] * 2
