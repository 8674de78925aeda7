// Constraintsweep runs the same hot benchmark under DTPM at several
// temperature constraints, showing the regulation/performance trade-off:
// the trigger value "can be varied for different systems while the
// algorithm remains the same" (§5.1).
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	dev := repro.NewDevice()
	models, err := dev.Characterize(1)
	if err != nil {
		log.Fatal(err)
	}

	// Every run shares the workload, models and seed; only the policy and
	// the constraint vary.
	run := func(opts ...repro.Option) *repro.Result {
		common := []repro.Option{repro.WithBenchmark("matrixmult"), repro.WithModels(models), repro.WithSeed(1)}
		session, err := dev.Start(context.Background(), repro.NewSpec(append(common, opts...)...))
		if err != nil {
			log.Fatal(err)
		}
		res, err := session.Result()
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	base := run(repro.WithPolicy(repro.WithFan))
	fmt.Printf("baseline (with fan): exec=%.1fs power=%.2fW maxT=%.1fC\n\n", base.ExecTime, base.AvgPower, base.MaxTemp)

	fmt.Printf("%8s %8s %9s %8s %9s %10s\n", "TMax(C)", "exec(s)", "power(W)", "maxT(C)", ">TMax(s)", "perf loss")
	for _, tmax := range []float64{55, 58, 61, 63, 66, 70} {
		res := run(repro.WithPolicy(repro.DTPM), repro.WithTMax(tmax))
		loss := 100 * (res.ExecTime - base.ExecTime) / base.ExecTime
		fmt.Printf("%8.0f %8.1f %9.2f %8.1f %9.1f %9.1f%%\n",
			tmax, res.ExecTime, res.AvgPower, res.MaxTemp, res.OverTMax, loss)
	}
	fmt.Println("\nTighter constraints trade execution time for temperature;")
	fmt.Println("the algorithm and models are unchanged across the sweep.")
}
