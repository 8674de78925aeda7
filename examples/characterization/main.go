// Characterization walks the Chapter 4 modeling workflow end to end: fit
// the leakage law in the temperature furnace, identify the thermal
// state-space model from PRBS experiments, inspect both, and use the model
// for a multi-step temperature prediction (Equation 4.5).
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

	// Inspect the fitted models.
	fmt.Println("== Identified models ==")
	fmt.Print(models.Describe())

	// The Figure 4.3 leakage curve: exponential growth with temperature.
	fmt.Println("\n== Fitted leakage vs temperature (1.25 V) ==")
	for temp := 40.0; temp <= 80; temp += 10 {
		fmt.Printf("  %2.0f C -> %.3f W\n", temp, models.LeakageAt(temp, 1.25))
	}

	// Equation 4.5: predict the hotspots 1 s (10 intervals) ahead under a
	// hypothetical power assignment — this is exactly the computation the
	// DTPM controller runs before affirming a governor decision.
	temps := [4]float64{55, 54.5, 54.8, 55.2}
	powers := [4]float64{3.2, 0.05, 0.1, 0.5} // big, little, gpu, mem (W)
	pred := models.PredictTemperature(temps, powers, 10)
	fmt.Println("\n== 1 s temperature prediction under 3.2 W big-cluster load ==")
	fmt.Printf("  now:  %.1f %.1f %.1f %.1f C\n", temps[0], temps[1], temps[2], temps[3])
	fmt.Printf("  +1 s: %.1f %.1f %.1f %.1f C\n", pred[0], pred[1], pred[2], pred[3])

	// Validate the prediction accuracy inside a real benchmark run (the
	// §6.3.1 accounting): every interval the hotspot temperature is
	// predicted 1 s ahead and compared against the later measurement.
	session, err := dev.Start(context.Background(), repro.NewSpec(
		repro.WithBenchmark("blowfish"),
		repro.WithPolicy(repro.WithoutFan),
		repro.WithModels(models),
	))
	if err != nil {
		log.Fatal(err)
	}
	res, err := session.Result()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== In-loop validation on blowfish ==\n")
	fmt.Printf("  mean error %.2f%%  max error %.2f%%  max abs %.2f C\n",
		res.PredMeanPct, res.PredMaxPct, res.PredMaxAbsC)
}
