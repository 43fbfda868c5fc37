"""Every comparison framework, in the order the paper's figures list them."""

from repro.baselines.ffl import Ffl
from repro.baselines.ffls import Ffls
from repro.baselines.flightplan import Flightplan
from repro.baselines.hermes_adapters import HermesHeuristic, HermesOptimal
from repro.baselines.min_stage import MinStage
from repro.baselines.mtp import Mtp
from repro.baselines.p4all import P4All
from repro.baselines.sonata import Sonata
from repro.baselines.speed import Speed

ALL_FRAMEWORKS = (
    MinStage,
    Sonata,
    Speed,
    Mtp,
    Flightplan,
    P4All,
    Ffl,
    Ffls,
    HermesHeuristic,
    HermesOptimal,
)
