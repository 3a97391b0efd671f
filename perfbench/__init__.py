"""Host-performance benchmark of the warehouse simulator.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` drives the simulator from outside, through its public
entry points, and prints one JSON result line.  See :mod:`perfbench.run`.
"""
