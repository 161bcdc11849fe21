package repro.bench

import repro.SparkSpec
import repro.fpm.{Apriori, FPGrowth, Itemsets}
import repro.recipedb.RecipeGen

/** Baseline comparison (§II / [1] vs [6]): FP-Growth against level-wise
  * Apriori on the largest cuisine's transactions — identical outputs
  * required; wall-clock reported per support level. FP-Growth mines the
  * transactions collected to the driver (as the pipeline does inside one
  * task per cuisine); Apriori runs over the cached Dataset.
  *
  * The paper picked FP-Growth for being "an efficient and scalable method";
  * this bench substantiates that choice on our data.
  */
class MiningPerfBench extends SparkSpec {

  import spark.implicits._

  private val sf = sys.env.getOrElse("REPRO_BENCH_SF", "1.0").toDouble

  private lazy val transactions = {
    val recipes = RecipeGen.recipes(spark, sf)
    recipes.filter(recipes("cuisine") === "Italian")
      .select("items").as[Seq[String]].cache()
  }

  private def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  test(s"FP-Growth and Apriori agree and are timed at SF=$sf") {
    val collected = transactions.collect().toSeq
    println(s"\n=== Mining baseline comparison (Italian cuisine, SF=$sf) ===")
    println(f"${"support"}%8s ${"fp-growth(s)"}%13s ${"apriori(s)"}%11s ${"#itemsets"}%10s")
    Seq(0.4, 0.3, 0.2).foreach { s =>
      val (fp, tFp) = time(FPGrowth.mine(collected, s))
      val (ap, tAp) = time(Apriori.mine(transactions, s))
      val d = Itemsets.diff(fp, ap)
      assert(d.isEmpty, s"outputs differ at support $s: ${d.take(5)}")
      println(f"$s%8.2f $tFp%13.2f $tAp%11.2f ${fp.size}%10d")
    }
  }
}
