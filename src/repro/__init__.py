"""repro — learning graphical models from a distributed stream.

A from-scratch reproduction of Zhang, Tirthapura & Cormode, *Learning
Graphical Models from a Distributed Stream* (ICDE 2018): communication-
efficient continuous maintenance of Bayesian-network parameters over a
stream horizontally partitioned across ``k`` sites.

Quickstart
----------
>>> from repro import EstimatorSpec, ForwardSampler, alarm
>>> net = alarm()
>>> spec = EstimatorSpec("alarm", "nonuniform", eps=0.1, n_sites=10, seed=0)
>>> session = spec.session()
>>> data = ForwardSampler(net, seed=1).sample(10_000)
>>> session.ingest(data)                      # sites from the partitioner
>>> probability = session.query(data[0])
>>> session.snapshot("/tmp/run.ckpt")         # resume later, anywhere:
>>> # session = MonitoringSession.restore("/tmp/run.ckpt")
"""

from repro.api import (
    EstimatorSpec,
    MonitoringSession,
    algorithm_names,
    counter_backend_names,
    register_algorithm,
    register_counter_backend,
)

from repro.bn import (
    BayesianNetwork,
    ForwardSampler,
    TabularCPD,
    Variable,
    alarm,
    hepar2_like,
    link_family,
    link_like,
    munin_like,
    naive_bayes_network,
    network_by_name,
    new_alarm,
)
from repro.core import ALGORITHMS, BayesianClassifier, StreamingMLEEstimator
from repro.counters import (
    DeterministicCounterBank,
    ExactCounterBank,
    HYZCounterBank,
)
from repro.errors import ReproError
from repro.experiments import (
    ExperimentResult,
    ExperimentRunner,
    RunResult,
    classification_experiment,
    separation_experiment,
)
from repro.graph import DAG
from repro.monitoring import (
    ClusterCostModel,
    MessageLog,
    RoundRobinPartitioner,
    UniformPartitioner,
    ZipfPartitioner,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "DAG",
    "Variable",
    "TabularCPD",
    "BayesianNetwork",
    "ForwardSampler",
    "alarm",
    "new_alarm",
    "hepar2_like",
    "link_like",
    "link_family",
    "munin_like",
    "naive_bayes_network",
    "network_by_name",
    "ALGORITHMS",
    "StreamingMLEEstimator",
    "EstimatorSpec",
    "MonitoringSession",
    "register_algorithm",
    "register_counter_backend",
    "algorithm_names",
    "counter_backend_names",
    "BayesianClassifier",
    "ExactCounterBank",
    "HYZCounterBank",
    "DeterministicCounterBank",
    "MessageLog",
    "UniformPartitioner",
    "RoundRobinPartitioner",
    "ZipfPartitioner",
    "ClusterCostModel",
    "ExperimentRunner",
    "ExperimentResult",
    "RunResult",
    "classification_experiment",
    "separation_experiment",
]
