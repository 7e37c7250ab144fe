"""Digital twin of an opto-magnetic perceptron.

Simulates helicity-dependent pulse writing of magnetic synapses, crossed
analyzer Faraday readout into a linear camera, background-referenced weight
extraction, and supervised perceptron training with stochastic learning
rates, both as an abstract simulation and against an emulated bench.
"""

__version__ = "0.1.0"
